package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"thetis/internal/atomicio"
	"thetis/internal/kg"
	"thetis/internal/oracle"
	"thetis/internal/table"
)

// FuzzLoadTypeLSEI: the snapshot loader must never panic, never allocate
// unboundedly, and on arbitrary input either load a usable index (only for
// bytes that re-serialize from a valid one) or return the typed
// ErrCorruptSnapshot. Seeds live in testdata/fuzz/FuzzLoadTypeLSEI.
func FuzzLoadTypeLSEI(f *testing.F) {
	x, l, g := typeLSEI(f, LSEIConfig{Vectors: 16, BandSize: 4, Seed: 1})
	var buf bytes.Buffer
	if err := x.Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("garbage data"))
	f.Add([]byte{})
	sim := NewTypeJaccard(g)
	f.Fuzz(func(t *testing.T, data []byte) {
		back, err := LoadTypeLSEI(l, sim, bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, atomicio.ErrCorruptSnapshot) {
				t.Fatalf("non-typed load error: %v", err)
			}
			return
		}
		// A load that succeeded must be usable.
		q := queryOf(t, g, "santo")
		_ = back.Candidates(q, 1)
	})
}

// FuzzScoreTableMatchesOracle decodes a small table, a query, a σ and an
// aggregation from the fuzz input and checks scorer.scoreTable, reading σ
// through a fresh cache, against the oracle under the comparison rule, and
// upperBound against the score. Seeds live in
// testdata/fuzz/FuzzScoreTableMatchesOracle.
//
// The input is read a byte at a time (0 once it runs out): σ (type σ keyed,
// type σ behind another type, embedding cosine), aggregation, columns (1–5)
// and rows (1–6), then one byte per cell (a multiple of 4 leaves the cell
// unlinked, anything else links entity byte mod |KG|), then tuples (1–3)
// and per tuple its width (1–4) and one byte per entity.
func FuzzScoreTableMatchesOracle(f *testing.F) {
	_, g := randomCorpus(71, 12, 24, 0, 0, 0)
	n := g.NumEntities()
	tj := NewTypeJaccard(g)
	sims := []Similarity{tj, struct{ Similarity }{tj}, NewEmbeddingCosine(g, randomEmbeddings(rand.New(rand.NewSource(73)), g, 8))}
	inf := func(e kg.EntityID) float64 { return 0.25 + float64(e%4)/4 }
	f.Add([]byte{})
	f.Add([]byte{0, 0, 2, 2, 1, 2, 3, 5, 1, 2, 1, 2})
	f.Add([]byte{2, 1, 4, 3, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 14, 2, 3, 1, 2, 3, 1, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		sim, agg := sims[next()%len(sims)], Aggregation(next()%2)
		cols, rows := 1+next()%5, 1+next()%6
		tb := table.New("fuzz", make([]string, cols))
		for range rows {
			cells := make([]table.Cell, cols)
			for c := range cells {
				cells[c] = table.Cell{Value: "v"}
				if b := next(); b%4 != 0 {
					cells[c] = table.LinkedCell("v", kg.EntityID(b%n))
				}
			}
			tb.AppendRow(cells)
		}
		q := make(Query, 1+next()%3)
		for ti := range q {
			q[ti] = make(Tuple, 1+next()%4)
			for i := range q[ti] {
				q[ti][i] = kg.EntityID(next() % n)
			}
		}
		sc := newScorer(q, inf, agg, NewSigmaCache(q, sim, n))
		got, _ := sc.scoreBare(tb, nil)
		want := oracleScore(oracleOf(sim, inf, agg), q, tb, sc.assignment)
		if !oracle.Agree(agg == AggregateAvg, got, want) {
			t.Fatalf("scoreTable %v, oracle %v (µ %v, agg %v)", got, want, sc.assignment, agg)
		}
		if ub := sc.upperBound(); !(ub >= got) {
			t.Fatalf("upper bound %v below score %v", ub, got)
		}
	})
}
