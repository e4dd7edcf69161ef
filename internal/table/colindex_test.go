package table

import (
	"slices"
	"testing"

	"thetis/internal/kg"
)

func TestBuildColumnIndex(t *testing.T) {
	tb := New("t", []string{"a", "b"})
	tb.AppendRow([]Cell{LinkedCell("x", 7), {Value: "-"}})
	tb.AppendRow([]Cell{LinkedCell("y", 3), LinkedCell("z", 7)})
	tb.AppendRow([]Cell{LinkedCell("x", 7), {Value: "-"}})
	ci := BuildColumnIndex(tb)
	if len(ci.Cols) != 2 {
		t.Fatalf("Cols = %d, want 2", len(ci.Cols))
	}
	a := ci.Cols[0]
	// Distinct entities in first-occurrence order, with multiplicities.
	if len(a.Entities) != 2 || a.Entities[0] != 7 || a.Entities[1] != 3 {
		t.Fatalf("col a entities = %v, want [7 3]", a.Entities)
	}
	if a.Counts[0] != 2 || a.Counts[1] != 1 {
		t.Fatalf("col a counts = %v, want [2 1]", a.Counts)
	}
	if a.Linked != 3 {
		t.Fatalf("col a linked = %d, want 3", a.Linked)
	}
	b := ci.Cols[1]
	if len(b.Entities) != 1 || b.Entities[0] != kg.EntityID(7) || b.Counts[0] != 1 || b.Linked != 1 {
		t.Fatalf("col b = %+v", b)
	}
}

func TestBuildColumnIndexEmptyTable(t *testing.T) {
	ci := BuildColumnIndex(New("empty", []string{"a"}))
	if len(ci.Cols) != 1 || len(ci.Cols[0].Entities) != 0 || ci.Cols[0].Linked != 0 {
		t.Fatalf("empty table index = %+v", ci)
	}
}

func TestBuildKeyGroups(t *testing.T) {
	tb := New("t", []string{"a", "b", "c"})
	tb.AppendRow([]Cell{LinkedCell("x", 7), {Value: "-"}, LinkedCell("y", 3)})
	tb.AppendRow([]Cell{LinkedCell("y", 3), LinkedCell("z", 7), LinkedCell("u", 4)})
	tb.AppendRow([]Cell{LinkedCell("x", 5), {Value: "-"}, LinkedCell("v", 6)})
	tb.AppendRow([]Cell{LinkedCell("w", 4), {Value: "-"}, {Value: "-"}})
	// Odd entities share key 1, even ones key 0.
	g := BuildKeyGroups(tb, func(e kg.EntityID) uint32 { return uint32(e % 2) })
	if g.NumRows != 4 || g.NumColumns() != 3 {
		t.Fatalf("%d rows, %d columns, want 4 and 3", g.NumRows, g.NumColumns())
	}
	want := []struct {
		keys   []uint32
		counts []int32
	}{
		{[]uint32{1, 0}, []int32{3, 1}}, // 7, 3, 5 share key 1; 4 is first met in row 4
		{[]uint32{1}, []int32{1}},
		{[]uint32{1, 0}, []int32{1, 2}},
	}
	for j, w := range want {
		lo, hi := g.Offsets[j], g.Offsets[j+1]
		if !slices.Equal(g.Keys[lo:hi], w.keys) || !slices.Equal(g.Counts[lo:hi], w.counts) {
			t.Fatalf("column %d: keys %v counts %v, want %v %v", j, g.Keys[lo:hi], g.Counts[lo:hi], w.keys, w.counts)
		}
	}
	if e := BuildKeyGroups(New("empty", []string{"a"}), nil); e.NumRows != 0 || e.NumColumns() != 1 || len(e.Keys) != 0 {
		t.Fatalf("empty table groups = %+v", e)
	}
}
