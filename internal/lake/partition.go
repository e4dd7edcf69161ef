package lake

import (
	"hash/fnv"

	"thetis/internal/table"
)

// Partitioner assigns each table to one of a fixed number of shards by the
// FNV-1a hash of its name modulo n: stateless, deterministic across
// processes, and independent of ingestion order, so a coordinator can
// replay it over its corpus to learn which remote shard daemon holds which
// table. Tables sharing a name land on the same shard.
type Partitioner struct{ n int }

// NewHashPartitioner returns the partitioner over n shards.
func NewHashPartitioner(n int) Partitioner {
	if n < 1 {
		panic("lake: partitioner needs at least 1 shard")
	}
	return Partitioner{n: n}
}

// Shards returns the fixed shard count n.
func (p Partitioner) Shards() int { return p.n }

// Assign returns the shard in [0, n) that owns t.
func (p Partitioner) Assign(t *table.Table) int {
	h := fnv.New32a()
	h.Write([]byte(t.Name))
	return int(h.Sum32() % uint32(p.n))
}
