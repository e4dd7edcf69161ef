package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"thetis/internal/atomicio"
	"thetis/internal/core"
	"thetis/internal/hungarian"
	"thetis/internal/kg"
	"thetis/internal/table"
)

// Fixed-count measurements of the smallest layers, each a loop over seeded
// inputs around one public function.

func sigmaMetric(w workload) string {
	if w.embeddings {
		return "sigma.embedding_cosine_ns"
	}
	return "sigma.type_jaccard_ns"
}

// sigmaNanos is the mean cost of one Similarity.Score call over 100k
// seeded entity pairs drawn from the lake's entities.
func sigmaNanos(c *corpus, sim core.Similarity) float64 {
	const pairs = 100_000
	ents := c.lake.DistinctEntities()
	rng := rand.New(rand.NewSource(c.seed + 4))
	as, bs := make([]kg.EntityID, pairs), make([]kg.EntityID, pairs)
	for i := range as {
		as[i], bs[i] = ents[rng.Intn(len(ents))], ents[rng.Intn(len(ents))]
	}
	total := 0.0
	start := time.Now()
	for i := range as {
		total += sim.Score(as[i], bs[i])
	}
	elapsed := time.Since(start)
	sink = total
	return float64(elapsed) / pairs
}

// hungarianNanos is the mean cost of one 3x6 assignment: a three-entity
// query tuple against a six-column table, the benchmark's common shape.
func hungarianNanos(seed int64) float64 {
	const calls = 20_000
	rng := rand.New(rand.NewSource(seed + 5))
	scores := make([][][]float64, 64)
	for i := range scores {
		scores[i] = make([][]float64, 3)
		for r := range scores[i] {
			scores[i][r] = make([]float64, 6)
			for col := range scores[i][r] {
				scores[i][r][col] = rng.Float64()
			}
		}
	}
	start := time.Now()
	for i := 0; i < calls; i++ {
		sink = hungarian.Maximize(scores[i%len(scores)])
	}
	return float64(time.Since(start)) / calls
}

// colindexMicros is the mean cost of building one table's column index,
// paid on a table's first scoring.
func colindexMicros(c *corpus) float64 {
	tables := c.lake.Tables()
	n := min(len(tables), 500)
	start := time.Now()
	for _, t := range tables[:n] {
		sink = table.BuildColumnIndex(t)
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / float64(n)
}

// deltaAppendSync times what the delta log adds to a mutation: one record
// appended and fsynced, for n of the stream's tables, in dir. The appends
// are spaced like the stream's mutations, because an fsync that follows
// another at once is cheaper than one the device has idled before.
func deltaAppendSync(dir string, payloads [][]byte, n int) ([]time.Duration, error) {
	f, err := os.Create(filepath.Join(dir, "append-probe.log"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dw, err := atomicio.NewDeltaWriter(f, 0)
	if err != nil {
		return nil, err
	}
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		time.Sleep(5 * time.Millisecond)
		start := time.Now()
		if err := dw.Append(1, payloads[i%len(payloads)]); err != nil {
			return nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}
