package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/table"
)

// fixtureLake assembles a miniature version of Figure 1b: baseball tables,
// a volleyball table, and a cities table, all linked against fixtureGraph.
func fixtureLake(t testing.TB) (*lake.Lake, *kg.Graph) {
	t.Helper()
	g := fixtureGraph()
	l := lake.New(g)

	le := func(uri string) table.Cell {
		e, ok := g.Lookup(uri)
		if !ok {
			t.Fatalf("fixture entity %q missing", uri)
		}
		return table.LinkedCell(g.Label(e), e)
	}

	// Table 0: exact data for the query (players + teams).
	t0 := table.New("players", []string{"Player", "Team", "Avg"})
	t0.AppendRow([]table.Cell{le("santo"), le("cubs"), {Value: ".277"}})
	t0.AppendRow([]table.Cell{le("stetter"), le("brewers"), {Value: ".102"}})
	l.Add(t0)

	// Table 1: related data (other baseball players/teams).
	t1 := table.New("transfers", []string{"Player", "From"})
	t1.AppendRow([]table.Cell{le("stetter"), le("brewers")})
	l.Add(t1)

	// Table 2: same shape but a different sport (less relevant).
	t2 := table.New("volleyball", []string{"Player", "Team"})
	t2.AppendRow([]table.Cell{le("volley1"), le("volleyteam")})
	l.Add(t2)

	// Table 3: cities only (weakly related through the taxonomy root).
	t3 := table.New("cities", []string{"City"})
	t3.AppendRow([]table.Cell{le("chicago")})
	t3.AppendRow([]table.Cell{le("milwaukee")})
	l.Add(t3)

	// Table 4: completely unlinked (no entities at all).
	t4 := table.New("numbers", []string{"A", "B"})
	t4.AppendValues("1", "2")
	l.Add(t4)

	return l, g
}

func queryOf(t testing.TB, g *kg.Graph, uris ...string) Query {
	t.Helper()
	tuple := make(Tuple, len(uris))
	for i, u := range uris {
		tuple[i] = ent(t, g, u)
	}
	return Query{tuple}
}

func TestSearchRanksExactTableFirst(t *testing.T) {
	l, g := fixtureLake(t)
	eng := NewEngine(l, NewTypeJaccard(g))
	q := queryOf(t, g, "santo", "cubs")
	results, stats := eng.Search(q, -1)
	if len(results) == 0 {
		t.Fatal("no results")
	}
	if results[0].Table != 0 {
		t.Errorf("top table = %d, want 0 (exact match); results %v", results[0].Table, results)
	}
	if results[0].Score != 1 {
		t.Errorf("exact total mapping score = %v, want 1", results[0].Score)
	}
	if stats.Candidates != l.NumTables() {
		t.Errorf("candidates = %d, want all %d", stats.Candidates, l.NumTables())
	}
	// The unlinked table must never be returned.
	for _, r := range results {
		if r.Table == 4 {
			t.Error("unlinked table returned with positive score")
		}
	}
}

// Axiom 1: total exact mappings beat everything unrelated.
// Axiom 3: tuples with more related entities score higher.
func TestSearchAxiomOrdering(t *testing.T) {
	l, g := fixtureLake(t)
	eng := NewEngine(l, NewTypeJaccard(g))
	q := queryOf(t, g, "santo", "cubs")
	results, _ := eng.Search(q, -1)
	pos := map[lake.TableID]int{}
	score := map[lake.TableID]float64{}
	for i, r := range results {
		pos[r.Table] = i
		score[r.Table] = r.Score
	}
	// exact (0) > related baseball (1) > volleyball (2) > cities (3)
	if !(score[0] > score[1]) {
		t.Errorf("exact %v should beat related %v", score[0], score[1])
	}
	if !(score[1] > score[2]) {
		t.Errorf("related baseball %v should beat volleyball %v", score[1], score[2])
	}
	if !(score[2] > score[3]) {
		t.Errorf("volleyball %v should beat cities %v", score[2], score[3])
	}
}

// Axiom 2: a larger partial exact mapping is at least as relevant.
func TestPartialExactMappingOrdering(t *testing.T) {
	g := fixtureGraph()
	l := lake.New(g)
	le := func(uri string) table.Cell {
		e, _ := g.Lookup(uri)
		return table.LinkedCell(g.Label(e), e)
	}
	// Table 0 contains both query entities; table 1 only one of them.
	t0 := table.New("both", []string{"a", "b"})
	t0.AppendRow([]table.Cell{le("santo"), le("cubs")})
	l.Add(t0)
	t1 := table.New("one", []string{"a"})
	t1.AppendRow([]table.Cell{le("santo")})
	l.Add(t1)
	eng := NewEngine(l, NewTypeJaccard(g))
	q := queryOf(t, g, "santo", "cubs")
	results, _ := eng.Search(q, -1)
	if len(results) != 2 || results[0].Table != 0 {
		t.Fatalf("results = %v, want table 0 first", results)
	}
	if !(results[0].Score > results[1].Score) {
		t.Errorf("total exact %v must beat partial exact %v", results[0].Score, results[1].Score)
	}
}

func TestColumnMappingAssignsDistinctColumns(t *testing.T) {
	g := fixtureGraph()
	l := lake.New(g)
	le := func(uri string) table.Cell {
		e, _ := g.Lookup(uri)
		return table.LinkedCell(g.Label(e), e)
	}
	// Both query entities are players; the table has two player columns.
	// The Hungarian constraint forces them onto different columns.
	tb := table.New("matchups", []string{"Home", "Away"})
	tb.AppendRow([]table.Cell{le("santo"), le("stetter")})
	l.Add(tb)
	eng := NewEngine(l, NewTypeJaccard(g))
	q := queryOf(t, g, "santo", "stetter")
	results, _ := eng.Search(q, -1)
	if len(results) != 1 {
		t.Fatalf("results = %v", results)
	}
	// Optimal: santo->Home (1.0), stetter->Away (1.0) => SemRel 1.
	if results[0].Score != 1 {
		t.Errorf("score = %v, want 1 (distinct optimal columns)", results[0].Score)
	}
}

func TestQueryWiderThanTable(t *testing.T) {
	g := fixtureGraph()
	l := lake.New(g)
	le := func(uri string) table.Cell {
		e, _ := g.Lookup(uri)
		return table.LinkedCell(g.Label(e), e)
	}
	tb := table.New("narrow", []string{"Player"})
	tb.AppendRow([]table.Cell{le("santo")})
	l.Add(tb)
	eng := NewEngine(l, NewTypeJaccard(g))
	q := queryOf(t, g, "santo", "cubs", "chicago")
	results, _ := eng.Search(q, -1)
	if len(results) != 1 {
		t.Fatalf("results = %v", results)
	}
	if results[0].Score <= 0 || results[0].Score >= 1 {
		t.Errorf("partial mapping score = %v, want in (0,1)", results[0].Score)
	}
}

func TestSearchTopKAndOrderStability(t *testing.T) {
	l, g := fixtureLake(t)
	eng := NewEngine(l, NewTypeJaccard(g))
	q := queryOf(t, g, "santo", "cubs")
	all, _ := eng.Search(q, -1)
	top2, _ := eng.Search(q, 2)
	if len(top2) != 2 {
		t.Fatalf("top2 = %v", top2)
	}
	for i := range top2 {
		if top2[i] != all[i] {
			t.Errorf("truncation changed order: %v vs %v", top2, all[:2])
		}
	}
	for i := 1; i < len(all); i++ {
		if all[i].Score > all[i-1].Score {
			t.Error("scores not descending")
		}
	}
}

func TestSearchParallelMatchesSerial(t *testing.T) {
	l, g := fixtureLake(t)
	q := queryOf(t, g, "santo", "cubs")
	serial := NewEngine(l, NewTypeJaccard(g))
	serial.Parallelism = 1
	parallel := NewEngine(l, NewTypeJaccard(g))
	parallel.Parallelism = 4
	rs, _ := serial.Search(q, -1)
	rp, _ := parallel.Search(q, -1)
	if len(rs) != len(rp) {
		t.Fatalf("serial %d results, parallel %d", len(rs), len(rp))
	}
	for i := range rs {
		if rs[i].Table != rp[i].Table || math.Abs(rs[i].Score-rp[i].Score) > 1e-12 {
			t.Fatalf("mismatch at %d: %v vs %v", i, rs[i], rp[i])
		}
	}
}

func TestSearchCandidatesSubset(t *testing.T) {
	l, g := fixtureLake(t)
	eng := NewEngine(l, NewTypeJaccard(g))
	q := queryOf(t, g, "santo", "cubs")
	results, stats := eng.SearchCandidates(q, []lake.TableID{2, 3}, -1)
	if stats.Candidates != 2 {
		t.Errorf("candidates = %d", stats.Candidates)
	}
	for _, r := range results {
		if r.Table != 2 && r.Table != 3 {
			t.Errorf("result outside candidate set: %v", r)
		}
	}
}

func TestSearchEmptyQuery(t *testing.T) {
	l, _ := fixtureLake(t)
	eng := NewEngine(l, NewTypeJaccard(l.Graph))
	results, stats := eng.Search(Query{}, 10)
	if results != nil || stats.Scored != 0 {
		t.Errorf("empty query results = %v", results)
	}
}

func TestMultiTupleQueryAveragesScores(t *testing.T) {
	l, g := fixtureLake(t)
	eng := NewEngine(l, NewTypeJaccard(g))
	q := Query{
		Tuple{ent(t, g, "santo"), ent(t, g, "cubs")},
		Tuple{ent(t, g, "stetter"), ent(t, g, "brewers")},
	}
	results, _ := eng.Search(q, -1)
	if len(results) == 0 || results[0].Table != 0 {
		t.Fatalf("results = %v, want table 0 first", results)
	}
	// Table 0 contains both tuples exactly: score 1.
	if results[0].Score != 1 {
		t.Errorf("both-tuple exact score = %v, want 1", results[0].Score)
	}
	// Table 1 contains only the second tuple exactly; averaged with the
	// related-only first tuple the score must be below 1.
	for _, r := range results {
		if r.Table == 1 && r.Score >= 1 {
			t.Errorf("partial table score = %v, want < 1", r.Score)
		}
	}
}

func TestAggregationMaxVsAvg(t *testing.T) {
	g := fixtureGraph()
	l := lake.New(g)
	le := func(uri string) table.Cell {
		e, _ := g.Lookup(uri)
		return table.LinkedCell(g.Label(e), e)
	}
	// One matching row among many unrelated rows: MAX keeps the signal,
	// AVG dilutes it.
	tb := table.New("mixed", []string{"Who"})
	tb.AppendRow([]table.Cell{le("santo")})
	for i := 0; i < 9; i++ {
		tb.AppendRow([]table.Cell{le("chicago")})
	}
	l.Add(tb)
	q := queryOf(t, g, "santo")

	engMax := NewEngine(l, NewTypeJaccard(g))
	engMax.Agg = AggregateMax
	engAvg := NewEngine(l, NewTypeJaccard(g))
	engAvg.Agg = AggregateAvg
	rMax, _ := engMax.Search(q, -1)
	rAvg, _ := engAvg.Search(q, -1)
	if len(rMax) != 1 || len(rAvg) != 1 {
		t.Fatalf("results: %v / %v", rMax, rAvg)
	}
	if !(rMax[0].Score > rAvg[0].Score) {
		t.Errorf("MAX %v should beat AVG %v on diluted tables", rMax[0].Score, rAvg[0].Score)
	}
	if rMax[0].Score != 1 {
		t.Errorf("MAX with exact row = %v, want 1", rMax[0].Score)
	}
}

func TestInformativenessWeighting(t *testing.T) {
	l, g := fixtureLake(t)
	inf := IDFInformativeness(l)
	santo := ent(t, g, "santo") // appears in 1 table
	// cubs appears in 1 table too; use chicago (1) vs a fabricated
	// high-frequency check instead: all fixture entities appear once, so
	// check absent entity gets weight 1 and present entities < 1.
	if w := inf(santo); w <= 0 || w > 1 {
		t.Errorf("I(santo) = %v, want in (0,1]", w)
	}
	absent := g.AddEntity("ghost", "")
	if w := inf(absent); w != 1 {
		t.Errorf("I(absent) = %v, want 1", w)
	}
}

func TestIDFRareBeatsFrequent(t *testing.T) {
	g := fixtureGraph()
	l := lake.New(g)
	le := func(uri string) table.Cell {
		e, _ := g.Lookup(uri)
		return table.LinkedCell(g.Label(e), e)
	}
	// chicago appears in 5 tables, santo in 1.
	for i := 0; i < 5; i++ {
		tb := table.New("c", []string{"City"})
		tb.AppendRow([]table.Cell{le("chicago")})
		l.Add(tb)
	}
	tb := table.New("p", []string{"Player"})
	tb.AppendRow([]table.Cell{le("santo")})
	l.Add(tb)
	inf := IDFInformativeness(l)
	if !(inf(ent(t, g, "santo")) > inf(ent(t, g, "chicago"))) {
		t.Errorf("I(rare)=%v should exceed I(frequent)=%v",
			inf(ent(t, g, "santo")), inf(ent(t, g, "chicago")))
	}
}

// A single worker over enough tables to sample µ scales its sampled time,
// but never past its own wall time, so MappingTime stays within TotalTime
// at every sampling phase; ExactMapping times every table.
func TestMappingTimeWithinTotal(t *testing.T) {
	l, g := fixtureLake(t)
	for i := 0; i < 4*mappingSample; i++ {
		tb := table.New("copy", []string{"Player", "Team"})
		tb.AppendRow([]table.Cell{
			table.LinkedCell("santo", ent(t, g, "santo")),
			table.LinkedCell("cubs", ent(t, g, "cubs")),
		})
		l.Add(tb)
	}
	q := queryOf(t, g, "santo", "cubs")
	for _, exact := range []bool{false, true} {
		eng := NewEngine(l, NewTypeJaccard(g))
		eng.Parallelism = 1
		eng.ExactMapping = exact
		for i := 0; i < 2*mappingSample; i++ {
			_, stats := eng.Search(q, -1)
			if stats.MappingTime <= 0 || stats.MappingTime > stats.TotalTime {
				t.Fatalf("exact=%v search %d: MappingTime = %v vs TotalTime %v",
					exact, i, stats.MappingTime, stats.TotalTime)
			}
		}
	}
}

func TestScoreTableStats(t *testing.T) {
	l, g := fixtureLake(t)
	eng := NewEngine(l, NewTypeJaccard(g))
	q := queryOf(t, g, "santo", "cubs")
	score, mapping := eng.ScoreTable(q, 0)
	if score != 1 {
		t.Errorf("ScoreTable = %v, want 1", score)
	}
	if mapping < 0 {
		t.Errorf("mapping time = %v", mapping)
	}
	_, stats := eng.Search(q, -1)
	if stats.TotalTime <= 0 {
		t.Error("TotalTime not measured")
	}
	if stats.MappingTime <= 0 || stats.MappingTime > stats.TotalTime+time.Millisecond {
		t.Errorf("MappingTime = %v vs TotalTime %v", stats.MappingTime, stats.TotalTime)
	}
	// The µ timer brackets all of a table's tuples at once; the trace's
	// mapping stage still reports the same cross-worker CPU time.
	if st := stats.Trace.Stage("mapping"); st == nil || st.CPU != stats.MappingTime {
		t.Errorf("mapping stage = %+v, want CPU %v", st, stats.MappingTime)
	}
	// A removed or unknown table scores 0, as a stale search candidate does.
	l.Remove(1)
	for _, tid := range []lake.TableID{1, 99999} {
		if score, mapping := eng.ScoreTable(q, tid); score != 0 || mapping != 0 {
			t.Errorf("ScoreTable(table %d) = (%v, %v), want (0, 0)", tid, score, mapping)
		}
	}
}

func TestRankedTables(t *testing.T) {
	rs := []Result{{Table: 3, Score: 0.9}, {Table: 1, Score: 0.5}}
	got := RankedTables(rs)
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Errorf("RankedTables = %v", got)
	}
}

func TestConcurrentSearches(t *testing.T) {
	l, g := fixtureLake(t)
	eng := NewEngine(l, NewTypeJaccard(g))
	q := queryOf(t, g, "santo", "cubs")
	want, _ := eng.Search(q, -1)
	done := make(chan []Result, 8)
	for i := 0; i < 8; i++ {
		go func() {
			res, _ := eng.Search(q, -1)
			done <- res
		}()
	}
	for i := 0; i < 8; i++ {
		got := <-done
		if len(got) != len(want) {
			t.Fatalf("concurrent search returned %d results, want %d", len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("concurrent search diverged at %d: %v vs %v", j, got[j], want[j])
			}
		}
	}
}

// TestPrunedTopKMatchesFullRanking is the exactness of top-k pruning at the
// level of a search: Search(q, k) is the first k of Search(q, -1) — which
// never prunes — bit for bit, on every agg × σ, for k from 1 to the lake
// size and one to eight workers. Every table of the lake exists
// twice (IDs i and 200+i), so equal scores straddle rank k for odd k and the
// strict < against the floor and the table-ID tie-break both decide results:
// searched in descending ID order, the table that must win a tie at the k-th
// place arrives after its twin has raised the floor to exactly its score.
// The pairwise and greedy cells hold those readings of the oracle to the
// engine's full ranking instead (checkReading).
func TestPrunedTopKMatchesFullRanking(t *testing.T) {
	half, g := randomCorpus(61, 24, 150, 200, 8, 4)
	l := lake.New(g)
	for range 2 {
		for _, tb := range half.Tables() {
			l.Add(tb.Clone())
		}
	}
	n := l.NumTables()
	rng := rand.New(rand.NewSource(67))
	queries := []Query{randomQuery(rng, g, 1, 1), randomQuery(rng, g, 1, 3), randomQuery(rng, g, 5, 3)}
	descending := l.LiveTableIDs()
	slices.Reverse(descending)
	requireSame := func(t *testing.T, what string, got, want []Result) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: got %v, want %v", what, got, want)
		}
	}
	sims := map[string]Similarity{
		"types":      NewTypeJaccard(g),
		"embeddings": NewEmbeddingCosine(g, randomEmbeddings(rand.New(rand.NewSource(9)), g, 16)),
	}
	for simName, sim := range sims {
		for _, agg := range []Aggregation{AggregateMax, AggregateAvg} {
			for _, mode := range []string{"entitywise", "pairwise"} {
				for _, mapping := range []string{"hungarian", "greedy"} {
					t.Run(fmt.Sprintf("%s/%v/%s/%s", simName, agg, mode, mapping), func(t *testing.T) {
						eng := &Engine{Lake: l, Sim: sim, Inf: IDFInformativeness(l), Agg: agg}
						if !paperCell(mode, mapping) {
							for qi, q := range queries {
								full, _ := eng.Search(q, -1)
								if err := checkReading(eng, q, ablation(sim, eng.Inf, agg, mode, mapping), full); err != nil {
									t.Fatalf("q%d: %v", qi, err)
								}
							}
							return
						}
						for qi, q := range queries {
							eng.Parallelism = 1
							full, fullStats := eng.Search(q, -1)
							if len(full) < 20 || fullStats.Pruned != 0 {
								t.Fatalf("q%d: the full ranking has %d tables and pruned %d; want a real ranking, nothing pruned", qi, len(full), fullStats.Pruned)
							}
							for _, k := range []int{1, 3, 10, n} {
								want := full[:min(k, len(full))]
								for _, par := range []int{1, 2, 8} {
									eng.Parallelism = par
									got, stats := eng.Search(q, k)
									requireSame(t, fmt.Sprintf("q%d k=%d par=%d", qi, k, par), got, want)
									if visited := stats.Scored + stats.Pruned; visited > n || stats.Scored < len(got) {
										t.Fatalf("q%d k=%d par=%d: scored %d + pruned %d of %d tables, %d returned", qi, k, par, stats.Scored, stats.Pruned, n, len(got))
									}
									if par == 1 && k <= 10 && stats.Pruned == 0 {
										t.Fatalf("q%d k=%d: a serial top-%d search of %d tables pruned nothing", qi, k, k, n)
									}
									got, _ = eng.SearchCandidates(q, descending, k)
									requireSame(t, fmt.Sprintf("q%d k=%d par=%d, descending IDs", qi, k, par), got, want)
								}
							}
						}
					})
				}
			}
		}
	}

	eng := NewEngine(l, sims["types"])
	eng.Parallelism = 1
	q := queries[2]
	full := func(q Query) []Result {
		results, _ := eng.Search(q, -1)
		return results
	}

	// No more candidates than k: the floor rises, if at all, after the last
	// table, and nothing is pruned. The candidates are nine tables of a
	// one-entity query in strictly descending score order — its bound is its
	// score, so a floor raised one score early would prune the ninth.
	var few []lake.TableID
	var best []Result
	for _, r := range full(queries[0]) {
		if len(best) < 9 && (len(best) == 0 || r.Score < best[len(best)-1].Score) {
			few, best = append(few, r.Table), append(best, r)
		}
	}
	for _, k := range []int{9, 10} {
		got, stats := eng.SearchCandidates(queries[0], few, k)
		requireSame(t, fmt.Sprintf("9 candidates, k=%d", k), got, best)
		if stats.Pruned != 0 {
			t.Errorf("9 candidates, k=%d: pruned %d tables before knowing a k-th score", k, stats.Pruned)
		}
	}

	// A search cut short returns the exact top-k of the tables it visited.
	// One worker visits a prefix of the candidates, and every σ-cache miss of
	// the σ pass — the same with and without pruning — is an evaluation of
	// cancelSim, so both searches are cancelled at the same table. cancelSim
	// is a σ without a key space of its own, so its cache rows are corpus
	// entities and the misses run on through the lake.
	const cutAfter = 1500
	truncatedSearch := func(k int) ([]Result, Stats) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cut := NewEngine(l, cancelSim{inner: sims["types"], after: cutAfter, calls: new(atomic.Int64), cancel: cancel})
		cut.Parallelism = 1
		return cut.SearchContext(ctx, q, k)
	}
	want, wantStats := truncatedSearch(-1)
	got, stats := truncatedSearch(10)
	if !stats.Truncated || !wantStats.Truncated || wantStats.Scored < 20 || wantStats.Scored >= n/2 {
		t.Fatalf("cancellation after %d σ-cache misses: truncated %v/%v with %d tables scored; want a cut mid-search", cutAfter, stats.Truncated, wantStats.Truncated, wantStats.Scored)
	}
	requireSame(t, "truncated search, k=10", got, want[:10])
	if stats.Pruned == 0 {
		t.Error("truncated search, k=10: pruned nothing before the cut")
	}

	// A table that panics costs its worker the scorer, not the floor: the
	// tables after it are pruned as before. The poisoned entity occurs in
	// one early table (and its twin) outside the top 10.
	clean, cleanStats := eng.Search(q, 10)
	poison := slices.IndexFunc(l.DistinctEntities(), func(e kg.EntityID) bool {
		at := l.TablesWith(e)
		return len(at) == 2 && at[0] >= 20 && at[0] < 100 && !slices.Contains(slices.Concat(q...), e) &&
			!slices.ContainsFunc(clean, func(r Result) bool { return r.Table == at[0] })
	})
	if poison < 0 {
		t.Fatal("no entity occurs in exactly one early table outside the top 10")
	}
	poisoned := NewEngine(l, poisonSimilarity{inner: sims["types"], poison: l.DistinctEntities()[poison]})
	poisoned.Parallelism = 1
	got, stats = poisoned.Search(q, 10)
	requireSame(t, "poisoned search, k=10", got, clean)
	if stats.Panicked != 2 || stats.Pruned < cleanStats.Pruned-2 {
		t.Errorf("poisoned search: %d tables panicked and %d were pruned; want 2 and at least %d", stats.Panicked, stats.Pruned, cleanStats.Pruned-2)
	}
}
