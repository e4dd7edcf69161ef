package shard

import (
	"context"
	"fmt"
	"testing"

	"thetis/internal/core"
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/obs"
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
	// star marks p0 and c0 only: it sits in half the tables, so the default
	// frequent-type filter keeps it while dropping player and city (in two
	// thirds) — only p0 and c0 get LSEI signatures.
	star := g.AddType("T:star", "star")
	var players, cities []kg.EntityID
	for i := 0; i < 6; i++ {
		e := g.AddEntity(fmt.Sprintf("E:p%d", i), fmt.Sprintf("p%d", i))
		g.AssignType(e, player)
		players = append(players, e)
		c := g.AddEntity(fmt.Sprintf("E:c%d", i), fmt.Sprintf("c%d", i))
		g.AssignType(c, city)
		cities = append(cities, c)
	}
	g.AssignType(players[0], star)
	g.AssignType(cities[0], star)

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

// fullLake is the whole fixture corpus in one lake, in global ID order —
// the lake an unsharded search runs over.
func fullLake(g *kg.Graph, tables []*table.Table) *lake.Lake {
	all := lake.New(g)
	for _, tb := range tables {
		all.Add(tb)
	}
	return all
}

// testLeg is one shard wired the way a remote shard daemon is after its
// bootstrap: its own lake, an engine weighing entities by IDF over the
// full corpus rather than its own slice, an optional LSEI with its vote
// threshold, and the global IDs of its tables in local ID order. It
// answers a leg the way thetis.System.SearchShard does, translated to
// global IDs the way remote.Shard translates a daemon's response.
type testLeg struct {
	lake   *lake.Lake
	engine *core.Engine
	index  *core.LSEI
	votes  int
	global []lake.TableID
}

func (l *testLeg) SearchShard(ctx context.Context, q core.Query, k int, opts SearchOptions) ([]core.Result, core.Stats) {
	ix := l.index
	if opts.ForceFullScan {
		ix = nil
	}
	results, stats := core.SearchWithIndex(ctx, l.engine, ix, l.votes, q, k, core.FallbackNone)
	for i := range results {
		results[i].Table = l.global[results[i].Table]
	}
	return results, stats
}

// buildLegs round-robins the fixture tables across n legs, unindexed.
func buildLegs(g *kg.Graph, tables []*table.Table, n int) []*testLeg {
	legs := make([]*testLeg, n)
	for i := range legs {
		legs[i] = &testLeg{lake: lake.New(g), votes: 1}
	}
	for i, tb := range tables {
		l := legs[i%n]
		l.lake.Add(tb)
		l.global = append(l.global, lake.TableID(i))
	}
	inf := core.IDFInformativeness(fullLake(g, tables))
	tj := core.NewTypeJaccard(g)
	for _, l := range legs {
		l.engine = core.NewEngine(l.lake, tj)
		l.engine.Inf = inf
	}
	return legs
}

func searchers(legs []*testLeg) []Searcher {
	out := make([]Searcher, len(legs))
	for i, l := range legs {
		out[i] = l
	}
	return out
}

// assertCoordinatorMatches compares the coordinator's ranking of every
// query with the direct one (wants[qi] for queries[qi]), IDs and scores
// bit for bit.
func assertCoordinatorMatches(t *testing.T, label string, coord *Coordinator, queries []core.Query, wants [][]core.Result) {
	t.Helper()
	for qi, q := range queries {
		want := wants[qi]
		got, stats := coord.Search(context.Background(), q, 4)
		if len(got) != len(want) {
			t.Fatalf("%s q%d: %d results, want %d", label, qi, len(got), len(want))
		}
		for i := range want {
			if got[i].Table != want[i].Table || got[i].Score != want[i].Score {
				t.Fatalf("%s q%d rank %d: got %+v, want %+v", label, qi, i, got[i], want[i])
			}
		}
		if stats.Truncated {
			t.Fatalf("%s q%d: unexpected truncation", label, qi)
		}
	}
}

// TestCoordinatorMatchesDirectFullScan: N hand-assembled legs merged by a
// Coordinator rank like one engine over the full lake — brute force, and
// with every leg's LSEI built under the full corpus's frequent-type
// filter against one index over the full lake. In the fixture only p0 and
// c0 keep a type past the filter, so queries 1 and 3 find no candidate on
// any leg and must rescatter as a full scan, as the full-lake search falls
// back to one.
func TestCoordinatorMatchesDirectFullScan(t *testing.T) {
	g, tables, queries := fixture(t)
	all := fullLake(g, tables)
	tj := core.NewTypeJaccard(g)
	direct := core.NewEngine(all, tj)
	cfg := core.DefaultLSEIConfig()
	fullIndex := core.BuildTypeLSEI(all, tj, cfg)
	filter := core.FrequentTypesOver(all, tj, cfg.FrequentTypeThreshold)
	for qi, q := range queries {
		c := fullIndex.CandidatesTracedContext(context.Background(), q, 1, nil)
		if empty := qi == 1 || qi == 3; empty != (len(c) == 0) {
			t.Fatalf("q%d: the fixture's filter leaves candidates %v", qi, c)
		}
	}

	directRanks := func(search func(core.Query) []core.Result) [][]core.Result {
		wants := make([][]core.Result, len(queries))
		for qi, q := range queries {
			wants[qi] = search(q)
		}
		return wants
	}
	bruteForce := directRanks(func(q core.Query) []core.Result {
		res, _ := direct.SearchContext(context.Background(), q, 4)
		return res
	})

	for _, n := range []int{1, 2, 3} {
		legs := buildLegs(g, tables, n)
		coord := NewCoordinator(searchers(legs)...)
		assertCoordinatorMatches(t, fmt.Sprintf("shards=%d", n), coord, queries, bruteForce)

		for _, l := range legs {
			l.index = core.BuildTypeLSEIFiltered(l.lake, tj, cfg, filter)
		}
		for votes := 1; votes <= 3; votes++ {
			for _, l := range legs {
				l.votes = votes
			}
			// The direct search falls back on its own; rank it before
			// reading the counter so only the coordinator's rescatters count.
			wants := directRanks(func(q core.Query) []core.Result {
				res, _ := core.SearchWithIndex(context.Background(), direct, fullIndex, votes, q, 4, core.FallbackFullScan)
				return res
			})
			rescatters := obs.ShardRescattersTotal().Value()
			assertCoordinatorMatches(t, fmt.Sprintf("shards=%d/lsei/votes=%d", n, votes), coord, queries, wants)
			if got := obs.ShardRescattersTotal().Value() - rescatters; got < 2 {
				t.Fatalf("shards=%d votes=%d: %d rescatters, want one for each of queries 1 and 3", n, votes, got)
			}
		}
	}
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
	coord := NewCoordinator(searchers(buildLegs(g, tables, 2))...)
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
