package core

import (
	"testing"

	"thetis/internal/hungarian"
	"thetis/internal/lake"
	"thetis/internal/oracle"
	"thetis/internal/table"
)

// The greedy mapping lives in the oracle, for the mapping ablation
// (oracle.Greedy); these tests pin it beside the engine's Hungarian µ.

func TestGreedyMaximizeBasics(t *testing.T) {
	S := [][]float64{
		{10, 9},
		{9, 1},
	}
	got := oracle.Greedy(S)
	// Greedy takes (0,0)=10 then (1,1)=1 -> total 11; optimal is 18.
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("greedy = %v, want [0 1]", got)
	}
	if hungarian.TotalScore(S, got) >= hungarian.TotalScore(S, hungarian.Maximize(S)) {
		t.Error("greedy should be suboptimal on this matrix")
	}
}

func TestGreedyMaximizeSkipsZeroColumns(t *testing.T) {
	if got := oracle.Greedy([][]float64{{0, 0}}); got[0] != -1 {
		t.Errorf("greedy assigned a zero-score column: %v", got)
	}
	// A column taken by an earlier entity is not offered to a later one,
	// even when only it scores.
	if got := oracle.Greedy([][]float64{{0, 5}, {0, 7}}); got[0] != 1 || got[1] != -1 {
		t.Errorf("greedy = %v, want [1 -1]", got)
	}
	if got := oracle.Greedy(nil); len(got) != 0 {
		t.Errorf("greedy on an empty matrix = %v", got)
	}
}

// Greedy can pick a suboptimal assignment when an early query entity takes
// the column a later entity needs more: column C holds both players (sum
// 1.95 for either query entity), column D holds only santo. Greedy sends
// santo to C and stetter to D; the Hungarian optimum crosses them, which
// also yields the better SemRel.
func TestGreedySuboptimalCase(t *testing.T) {
	g := fixtureGraph()
	l := lake.New(g)
	le := func(uri string) table.Cell {
		e, _ := g.Lookup(uri)
		return table.LinkedCell(g.Label(e), e)
	}
	tb := table.New("crossed", []string{"C", "D"})
	tb.AppendRow([]table.Cell{le("santo"), le("santo")})
	tb.AppendRow([]table.Cell{le("stetter"), {Value: "-"}})
	l.Add(tb)

	q := queryOf(t, g, "santo", "stetter")
	hung := NewEngine(l, NewTypeJaccard(g))
	greedy := oracleOf(hung.Sim, hung.Inf, hung.Agg)
	greedy.Greedy = true
	rh, _ := hung.Search(q, -1)
	rg := greedy.Rank(l, oracle.Tuples(q))
	if len(rh) != 1 || len(rg) != 1 {
		t.Fatalf("results: %v / %v", rh, rg)
	}
	// Hungarian: stetter->C (max σ = 1), santo->D (max σ = 1) => SemRel 1.
	if rh[0].Score != 1 {
		t.Errorf("hungarian crossed score = %v, want 1", rh[0].Score)
	}
	if !(rg[0].Score < rh[0].Score) {
		t.Errorf("greedy %v should be below hungarian %v on crossed columns",
			rg[0].Score, rh[0].Score)
	}
}

// The Hungarian method maximizes the *assignment total* (Section 5.1's
// objective). Greedy can never exceed it on that objective — though the
// downstream MAX-aggregated SemRel is a different function and may
// occasionally disagree, which is exactly what the ablation quantifies.
// The engine's totals are its own S; greedy's are the oracle's, which sums
// S row by row, hence the 1e-9.
func TestHungarianDominatesGreedyOnAssignmentTotal(t *testing.T) {
	l, g := fixtureLake(t)
	q := queryOf(t, g, "santo", "stetter")
	sim := NewTypeJaccard(g)
	sc := newScorer(q, UniformInformativeness, AggregateMax, NewSigmaCache(q, sim, g.NumEntities()))
	greedy := oracle.Config{Sim: sim, Greedy: true}
	for _, tb := range l.Tables() {
		if tb.NumRows() == 0 {
			continue
		}
		sc.sigmaPass(bareView(sc, tb, nil))
		hTotal := sc.mapColumns(0)
		S := greedy.Matrix(tb, q[0])
		if gTotal := hungarian.TotalScore(S, oracle.Greedy(S)); gTotal > hTotal+1e-9 {
			t.Errorf("table %q: greedy total %v exceeds hungarian %v", tb.Name, gTotal, hTotal)
		}
	}
}

// A warm scorer — one that has already scored a table at least as wide —
// scores a table without allocating: the score matrix headers, the solver's
// potentials and the per-tuple assignments are all scorer scratch. Covers
// both shapes of the assignment problem (table wider than the query tuple, and narrower,
// which the Hungarian solver handles through its transposed read).
func TestWarmScorerAllocatesNothing(t *testing.T) {
	l, g := fixtureLake(t)
	le := func(uri string) table.Cell {
		e, _ := g.Lookup(uri)
		return table.LinkedCell(g.Label(e), e)
	}
	narrow := table.New("narrow", []string{"Player"})
	narrow.AppendRow([]table.Cell{le("santo")})
	narrow.AppendRow([]table.Cell{le("stetter")})
	narrowID := l.Add(narrow)

	q := Query{
		queryOf(t, g, "santo", "cubs")[0],
		queryOf(t, g, "stetter", "brewers", "milwaukee")[0],
	}
	const wideID = 0
	if w := l.Table(wideID).NumColumns(); w < len(q[1]) || narrow.NumColumns() >= len(q[0]) {
		t.Fatalf("fixture drift: wide table has %d columns, narrow %d", w, narrow.NumColumns())
	}
	sim := NewTypeJaccard(g)
	for _, tid := range []lake.TableID{wideID, narrowID} {
		tb := l.Table(tid)
		sc := newScorer(q, UniformInformativeness, AggregateMax, NewSigmaCache(q, sim, g.NumEntities()))
		v, _ := viewOf(l, sc.shared, tid, holdsAny(l, sc.distinct, tid))
		want, _ := sc.scoreTable(v, true) // warm-up
		if want <= 0 {
			t.Fatalf("%q: score %v, want a match", tb.Name, want)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if got, _ := sc.scoreTable(v, true); got != want {
				t.Errorf("%q: score %v on reused scratch, first %v", tb.Name, got, want)
			}
		})
		if allocs != 0 {
			t.Errorf("%q: %v allocs per table on a warm scorer, want 0", tb.Name, allocs)
		}
	}
}
