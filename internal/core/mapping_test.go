package core

import (
	"testing"

	"thetis/internal/hungarian"
	"thetis/internal/lake"
	"thetis/internal/table"
)

func TestGreedyMaximizeBasics(t *testing.T) {
	S := [][]float64{
		{10, 9},
		{9, 1},
	}
	got := make([]int, len(S))
	new(scorer).greedyMaximize(S, got)
	// Greedy takes (0,0)=10 then (1,1)=1 -> total 11; optimal is 18.
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("greedy = %v, want [0 1]", got)
	}
	if hungarian.TotalScore(S, got) >= hungarian.TotalScore(S, hungarian.Maximize(S)) {
		t.Error("greedy should be suboptimal on this matrix")
	}
}

func TestGreedyMaximizeSkipsZeroColumns(t *testing.T) {
	// One scorer throughout, so the used-column marks are reused scratch.
	var sc scorer
	got := []int{0}
	if sc.greedyMaximize([][]float64{{0, 0}}, got); got[0] != -1 {
		t.Errorf("greedy assigned a zero-score column: %v", got)
	}
	// A used mark left by one call must not leak into the next.
	if sc.greedyMaximize([][]float64{{0, 5}}, got); got[0] != 1 {
		t.Errorf("greedy = %v, want [1]", got)
	}
	if sc.greedyMaximize([][]float64{{0, 7}}, got); got[0] != 1 {
		t.Errorf("greedy on reused scratch = %v, want [1]", got)
	}
	sc.greedyMaximize(nil, nil) // an empty matrix is a no-op
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
	greedy := NewEngine(l, NewTypeJaccard(g))
	greedy.Mapping = MappingGreedy
	rh, _ := hung.Search(q, -1)
	rg, _ := greedy.Search(q, -1)
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
func TestHungarianDominatesGreedyOnAssignmentTotal(t *testing.T) {
	l, g := fixtureLake(t)
	q := queryOf(t, g, "santo", "stetter")
	sc := newScorer(q, NewTypeJaccard(g), UniformInformativeness, AggregateMax, ModeEntityWise, MappingHungarian, nil)
	scGreedy := newScorer(q, NewTypeJaccard(g), UniformInformativeness, AggregateMax, ModeEntityWise, MappingGreedy, nil)
	for _, tb := range l.Tables() {
		if tb.NumRows() == 0 {
			continue
		}
		ci := table.BuildColumnIndex(tb)
		sc.scoreColumns(ci, tb.NumRows())
		scGreedy.scoreColumns(ci, tb.NumRows())
		hTotal := sc.mapColumns(0)
		gTotal := scGreedy.mapColumns(0)
		if gTotal > hTotal+1e-9 {
			t.Errorf("table %q: greedy total %v exceeds hungarian %v", tb.Name, gTotal, hTotal)
		}
	}
}

// A warm scorer — one that has already scored a table at least as wide —
// scores a table without allocating: the score matrix headers, the solver's
// potentials, greedy's marks and the per-tuple assignments are all scorer
// scratch. Covers both mapping methods, both score modes, and both shapes
// of the assignment problem (table wider than the query tuple, and narrower,
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
	for _, mapping := range []MappingMethod{MappingHungarian, MappingGreedy} {
		for _, mode := range []ScoreMode{ModeEntityWise, ModePairwise} {
			for _, tid := range []lake.TableID{wideID, narrowID} {
				tb, ci := l.Table(tid), l.ColumnIndex(tid)
				shared := NewSigmaCache(q, sim, g.NumEntities())
				sc := newScorer(q, sim, UniformInformativeness, AggregateMax, mode, mapping, shared)
				want, _ := sc.scoreTable(tb, ci) // warm-up
				if want <= 0 {
					t.Fatalf("%v/%v/%q: score %v, want a match", mapping, mode, tb.Name, want)
				}
				allocs := testing.AllocsPerRun(50, func() {
					if got, _ := sc.scoreTable(tb, ci); got != want {
						t.Errorf("%v/%v/%q: score %v on reused scratch, first %v", mapping, mode, tb.Name, got, want)
					}
				})
				if allocs != 0 {
					t.Errorf("%v/%v/%q: %v allocs per table on a warm scorer, want 0", mapping, mode, tb.Name, allocs)
				}
			}
		}
	}
}

func TestMappingMethodString(t *testing.T) {
	if MappingHungarian.String() != "hungarian" || MappingGreedy.String() != "greedy" {
		t.Error("MappingMethod.String wrong")
	}
}
