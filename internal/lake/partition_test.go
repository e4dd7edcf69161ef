package lake

import (
	"fmt"
	"testing"

	"thetis/internal/table"
)

func sizedTable(name string, rows, cols int) *table.Table {
	headers := make([]string, cols)
	for j := range headers {
		headers[j] = fmt.Sprintf("c%d", j)
	}
	t := table.New(name, headers)
	row := make([]table.Cell, cols)
	for j := range row {
		row[j] = table.Cell{Value: "x"}
	}
	for i := 0; i < rows; i++ {
		t.AppendRow(row)
	}
	return t
}

func TestHashPartitionerDeterministicAndInRange(t *testing.T) {
	p := NewHashPartitioner(4)
	if p.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", p.Shards())
	}
	q := NewHashPartitioner(4)
	for i := 0; i < 200; i++ {
		tb := sizedTable(fmt.Sprintf("table-%d", i), 1, 1)
		got := p.Assign(tb)
		if got < 0 || got >= 4 {
			t.Fatalf("assignment %d out of range", got)
		}
		// Stateless: a second partitioner — and a repeat call — agree.
		if q.Assign(tb) != got || p.Assign(tb) != got {
			t.Fatalf("hash assignment for %q not deterministic", tb.Name)
		}
	}
}

func TestHashPartitionerCoversAllShards(t *testing.T) {
	p := NewHashPartitioner(4)
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		seen[p.Assign(sizedTable(fmt.Sprintf("table-%d", i), 1, 1))] = true
	}
	if len(seen) != 4 {
		t.Fatalf("200 hashed tables covered only shards %v", seen)
	}
}

func TestPartitionerPanicsOnBadShardCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0 shards")
		}
	}()
	NewHashPartitioner(0)
}
