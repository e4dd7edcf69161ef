package shard

import (
	"context"
	"fmt"
	"testing"

	"thetis/internal/core"
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/table"
)

// fixture builds a small typed graph and a corpus of single-column tables
// over it: players and cities, mixed so that different queries rank
// different tables on top.
func fixture(t testing.TB) (*kg.Graph, []*table.Table, []core.Query) {
	t.Helper()
	g := kg.NewGraph()
	player := g.AddType("T:player", "player")
	city := g.AddType("T:city", "city")
	var players, cities []kg.EntityID
	for i := 0; i < 6; i++ {
		e := g.AddEntity(fmt.Sprintf("E:p%d", i), fmt.Sprintf("p%d", i))
		g.AssignType(e, player)
		players = append(players, e)
		c := g.AddEntity(fmt.Sprintf("E:c%d", i), fmt.Sprintf("c%d", i))
		g.AssignType(c, city)
		cities = append(cities, c)
	}

	mk := func(name string, ents []kg.EntityID) *table.Table {
		tb := table.New(name, []string{"col"})
		for _, e := range ents {
			tb.AppendRow([]table.Cell{table.LinkedCell(g.Label(e), e)})
		}
		return tb
	}
	tables := []*table.Table{
		mk("players-a", players[:3]),
		mk("players-b", players[3:]),
		mk("cities-a", cities[:3]),
		mk("cities-b", cities[3:]),
		mk("mixed", []kg.EntityID{players[0], cities[0]}),
		mk("mixed-2", []kg.EntityID{players[5], cities[5]}),
	}
	queries := []core.Query{
		{core.Tuple{players[0]}},
		{core.Tuple{cities[1]}},
		{core.Tuple{players[0], cities[0]}},
		{core.Tuple{players[1]}, core.Tuple{players[4]}},
	}
	return g, tables, queries
}

// buildLocals round-robins the fixture tables across n shards wired the way
// thetis.System wires them: global informativeness, shared graph.
func buildLocals(g *kg.Graph, tables []*table.Table, n int) []*Local {
	locals := make([]*Local, n)
	for i := range locals {
		locals[i] = NewLocal(i, g)
	}
	for i, tb := range tables {
		locals[i%n].Add(tb, lake.TableID(i))
	}
	lakes := make([]*lake.Lake, n)
	for i, s := range locals {
		lakes[i] = s.Lake()
	}
	inf := core.IDFInformativenessOver(lakes)
	tj := core.NewTypeJaccard(g)
	for _, s := range locals {
		eng := core.NewEngine(s.Lake(), tj)
		eng.Inf = inf
		s.SetEngine(eng)
	}
	return locals
}

func searchers(locals []*Local) []Searcher {
	out := make([]Searcher, len(locals))
	for i, s := range locals {
		out[i] = s
	}
	return out
}

func TestCoordinatorMatchesDirectFullScan(t *testing.T) {
	g, tables, queries := fixture(t)
	all := lake.New(g)
	for _, tb := range tables {
		all.Add(tb)
	}
	direct := core.NewEngine(all, core.NewTypeJaccard(g))

	for _, n := range []int{1, 2, 3} {
		coord := NewCoordinator(searchers(buildLocals(g, tables, n))...)
		for qi, q := range queries {
			want, _ := direct.SearchContext(context.Background(), q, 4)
			got, stats := coord.Search(context.Background(), q, 4)
			if len(got) != len(want) {
				t.Fatalf("shards=%d q%d: %d results, want %d", n, qi, len(got), len(want))
			}
			for i := range want {
				if got[i].Table != want[i].Table || got[i].Score != want[i].Score {
					t.Fatalf("shards=%d q%d rank %d: got %+v, want %+v", n, qi, i, got[i], want[i])
				}
			}
			if stats.Truncated {
				t.Fatalf("shards=%d q%d: unexpected truncation", n, qi)
			}
		}
	}
}

func TestLocalTranslatesToGlobalIDs(t *testing.T) {
	g, tables, _ := fixture(t)
	locals := buildLocals(g, tables, 2)
	// Shard 1 owns the odd global IDs under round-robin placement.
	p0, _ := g.Lookup("E:p3")
	results, _ := locals[1].SearchShard(context.Background(), core.Query{core.Tuple{p0}}, 10, SearchOptions{})
	if len(results) == 0 {
		t.Fatal("no results from shard 1")
	}
	for _, r := range results {
		if int(r.Table)%2 != 1 {
			t.Fatalf("shard 1 returned global ID %d, which it does not own", r.Table)
		}
	}
	if got := locals[1].GlobalID(0); got != 1 {
		t.Fatalf("GlobalID(0) = %d, want 1", got)
	}
}

func TestLocalSetEngineDropsIndex(t *testing.T) {
	g, tables, _ := fixture(t)
	locals := buildLocals(g, tables, 1)
	s := locals[0]
	tj := core.NewTypeJaccard(g)
	ix := core.BuildTypeLSEI(s.Lake(), tj, core.LSEIConfig{Vectors: 8, BandSize: 4, Seed: 1})
	s.SetIndex(ix)
	if s.Index() == nil {
		t.Fatal("index not installed")
	}
	s.SetEngine(s.Engine())
	if s.Index() != nil {
		t.Fatal("SetEngine must drop the index (signatures depend on σ)")
	}
}

func TestLocalPanicsWithoutEngine(t *testing.T) {
	g, _, _ := fixture(t)
	s := NewLocal(0, g)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic searching an engineless shard")
		}
	}()
	s.SearchShard(context.Background(), core.Query{}, 1, SearchOptions{})
}

// fakeShard scripts per-round responses for coordinator tests.
type fakeShard struct {
	results []core.Result
	stats   core.Stats
	forced  []core.Result
	panics  bool
}

func (f *fakeShard) SearchShard(ctx context.Context, q core.Query, k int, opts SearchOptions) ([]core.Result, core.Stats) {
	if f.panics {
		panic("fake shard exploded")
	}
	if opts.ForceFullScan {
		st := f.stats
		st.Candidates = 0
		st.Scored = len(f.forced)
		return f.forced, st
	}
	return f.results, f.stats
}

func TestCoordinatorContainsShardPanic(t *testing.T) {
	healthy := &fakeShard{
		results: []core.Result{{Table: 2, Score: 0.8}, {Table: 5, Score: 0.3}},
		stats:   core.Stats{Candidates: 2, Scored: 2},
	}
	coord := NewCoordinator(healthy, &fakeShard{panics: true})
	got, stats := coord.Search(context.Background(), core.Query{}, 10)
	if len(got) != 2 || got[0].Table != 2 || got[1].Table != 5 {
		t.Fatalf("healthy shard's ranking lost: %v", got)
	}
	if !stats.Truncated {
		t.Fatal("a panicked shard must mark the merged stats truncated")
	}
}

func TestCoordinatorRescattersOnGlobalEmptyPrefilter(t *testing.T) {
	// Both shards prune everything in round one; the coordinator must
	// rescatter with ForceFullScan and serve the forced round's results.
	a := &fakeShard{stats: core.Stats{Candidates: 0}, forced: []core.Result{{Table: 0, Score: 0.9}}}
	b := &fakeShard{stats: core.Stats{Candidates: 0}, forced: []core.Result{{Table: 1, Score: 0.4}}}
	coord := NewCoordinator(a, b)
	got, stats := coord.Search(context.Background(), core.Query{}, 10)
	if len(got) != 2 || got[0].Table != 0 || got[1].Table != 1 {
		t.Fatalf("rescatter results wrong: %v", got)
	}
	if stats.Scored != 2 {
		t.Fatalf("stats must come from the deciding round, got %+v", stats)
	}

	// One shard having candidates suppresses the fallback, matching the
	// single-node rule (fallback only on a globally empty prefilter).
	c := &fakeShard{results: []core.Result{{Table: 3, Score: 0.5}}, stats: core.Stats{Candidates: 1, Scored: 1}}
	coord = NewCoordinator(c, b)
	got, _ = coord.Search(context.Background(), core.Query{}, 10)
	if len(got) != 1 || got[0].Table != 3 {
		t.Fatalf("fallback must not fire when any shard had candidates: %v", got)
	}
}

func TestCoordinatorSkipsRescatterWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := &fakeShard{stats: core.Stats{Candidates: 0, Truncated: true}, forced: []core.Result{{Table: 0, Score: 0.9}}}
	coord := NewCoordinator(a)
	got, stats := coord.Search(ctx, core.Query{}, 10)
	if len(got) != 0 {
		t.Fatalf("cancelled search must not rescatter, got %v", got)
	}
	if !stats.Truncated {
		t.Fatal("cancelled search must stay marked truncated")
	}
}

func TestCoordinatorTraceCarriesShardLabels(t *testing.T) {
	g, tables, queries := fixture(t)
	coord := NewCoordinator(searchers(buildLocals(g, tables, 2))...)
	_, stats := coord.Search(context.Background(), queries[0], 3)
	if stats.Trace == nil {
		t.Fatal("merged stats missing trace")
	}
	scatter := map[string]bool{}
	sawMerge := false
	for _, st := range stats.Trace.Stages {
		if st.Name == "scatter" {
			scatter[st.Shard] = true
		}
		if st.Name == "merge" {
			sawMerge = true
			if st.Shard != "" {
				t.Fatalf("merge stage is coordinator-level, got shard %q", st.Shard)
			}
		}
	}
	if !scatter["0"] || !scatter["1"] || !sawMerge {
		t.Fatalf("trace missing scatter/merge stages: scatter=%v merge=%v", scatter, sawMerge)
	}
}

func TestCoordinatorStatsAggregate(t *testing.T) {
	a := &fakeShard{
		results: []core.Result{{Table: 0, Score: 0.9}},
		stats:   core.Stats{Candidates: 3, Scored: 1, SigmaHits: 5, SigmaMisses: 2},
	}
	b := &fakeShard{
		results: []core.Result{{Table: 1, Score: 0.7}},
		stats:   core.Stats{Candidates: 2, Scored: 1, SigmaHits: 1, SigmaMisses: 4, Truncated: true},
	}
	coord := NewCoordinator(a, b)
	_, stats := coord.Search(context.Background(), core.Query{}, 10)
	if stats.Candidates != 5 || stats.Scored != 2 || stats.SigmaHits != 6 || stats.SigmaMisses != 6 {
		t.Fatalf("counters must sum across shards: %+v", stats)
	}
	if !stats.Truncated {
		t.Fatal("Truncated must OR across shards")
	}
}
