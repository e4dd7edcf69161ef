package core

import (
	"testing"

	"thetis/internal/lake"
	"thetis/internal/oracle"
	"thetis/internal/table"
)

// The pairwise reading of Equation 1 lives in the oracle, for the score-mode
// ablation; these tests pin it on the fixture lake, beside the engine's
// entity-wise Algorithm 1.

// pairwise is the oracle's pairwise reading of eng.
func pairwise(eng *Engine) oracle.Config {
	c := oracleOf(eng.Sim, eng.Inf, eng.Agg)
	c.Pairwise = true
	return c
}

func TestPairwiseModeExactRowScoresOne(t *testing.T) {
	l, g := fixtureLake(t)
	q := queryOf(t, g, "santo", "cubs")
	results := pairwise(NewEngine(l, NewTypeJaccard(g))).Rank(l, oracle.Tuples(q))
	if len(results) == 0 || results[0].Table != 0 {
		t.Fatalf("pairwise results = %v, want table 0 first", results)
	}
	// Table 0 row 1 is exactly (santo, cubs): pairwise MAX = 1.
	if results[0].Score != 1 {
		t.Errorf("pairwise MAX exact score = %v, want 1", results[0].Score)
	}
}

// Pairwise MAX differs from entity-wise MAX when the best entities live in
// different rows: entity-wise can combine them, pairwise cannot.
func TestPairwiseVsEntityWiseCrossRow(t *testing.T) {
	g := fixtureGraph()
	l := lake.New(g)
	le := func(uri string) table.Cell {
		e, _ := g.Lookup(uri)
		return table.LinkedCell(g.Label(e), e)
	}
	// santo appears in row 0 with an unrelated city; cubs in row 1 with an
	// unrelated player. No single row matches both query entities.
	tb := table.New("split", []string{"Who", "What"})
	tb.AppendRow([]table.Cell{le("santo"), le("chicago")})
	tb.AppendRow([]table.Cell{le("volley1"), le("cubs")})
	l.Add(tb)

	q := queryOf(t, g, "santo", "cubs")
	eng := NewEngine(l, NewTypeJaccard(g))
	rew, _ := eng.Search(q, -1)
	rpw := pairwise(eng).Rank(l, oracle.Tuples(q))
	if len(rew) != 1 || len(rpw) != 1 {
		t.Fatalf("results: %v / %v", rew, rpw)
	}
	if !(rew[0].Score > rpw[0].Score) {
		t.Errorf("entity-wise %v should exceed pairwise %v on cross-row matches",
			rew[0].Score, rpw[0].Score)
	}
	// Entity-wise finds a perfect column-wise match (santo in col 0, cubs
	// in col 1, both σ=1 after row aggregation).
	if rew[0].Score != 1 {
		t.Errorf("entity-wise cross-row score = %v, want 1", rew[0].Score)
	}
}

func TestPairwiseAvgDilutes(t *testing.T) {
	g := fixtureGraph()
	l := lake.New(g)
	le := func(uri string) table.Cell {
		e, _ := g.Lookup(uri)
		return table.LinkedCell(g.Label(e), e)
	}
	tb := table.New("mixed", []string{"Who"})
	tb.AppendRow([]table.Cell{le("santo")})
	for i := 0; i < 9; i++ {
		tb.AppendRow([]table.Cell{le("chicago")})
	}
	l.Add(tb)
	q := oracle.Tuples(queryOf(t, g, "santo"))

	eng := NewEngine(l, NewTypeJaccard(g))
	rMax := pairwise(eng).Rank(l, q)
	eng.Agg = AggregateAvg
	rAvg := pairwise(eng).Rank(l, q)
	if len(rMax) != 1 || len(rAvg) != 1 {
		t.Fatalf("results: %v / %v", rMax, rAvg)
	}
	if !(rMax[0].Score > rAvg[0].Score) {
		t.Errorf("pairwise MAX %v should beat AVG %v on diluted tables",
			rMax[0].Score, rAvg[0].Score)
	}
	if rMax[0].Score != 1 {
		t.Errorf("pairwise MAX = %v, want 1 (exact row present)", rMax[0].Score)
	}
}

func TestPairwiseIrrelevantStillZero(t *testing.T) {
	l, g := fixtureLake(t)
	q := queryOf(t, g, "santo", "cubs")
	for _, r := range pairwise(NewEngine(l, NewTypeJaccard(g))).Rank(l, oracle.Tuples(q)) {
		if r.Table == 4 {
			t.Error("pairwise reading ranked the unlinked table")
		}
	}
}
