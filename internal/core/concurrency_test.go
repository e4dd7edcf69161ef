package core

// Request-lifecycle test battery: cooperative cancellation, graceful
// truncation, determinism under parallelism, and race-freedom of a shared
// Engine under mixed concurrent load (run with -race).

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/obs"
	"thetis/internal/table"
)

// stressLake builds a corpus of n two-row tables over a generated sports KG
// with distinct entities per table, so per-table scoring does real σ work
// (no cross-table cache hits) and scores still vary by type overlap. The
// returned query references the first table's entities.
func stressLake(t *testing.T, n int) (*lake.Lake, *kg.Graph, Query) {
	t.Helper()
	g := kg.NewGraph()
	thing := g.AddType("Thing", "")
	agent := g.AddType("Agent", "")
	person := g.AddType("Person", "")
	athlete := g.AddType("Athlete", "")
	org := g.AddType("Organisation", "")
	team := g.AddType("SportsTeam", "")
	g.AddSubtype(agent, thing)
	g.AddSubtype(person, agent)
	g.AddSubtype(athlete, person)
	g.AddSubtype(org, agent)
	g.AddSubtype(team, org)
	// Leaf types are assigned in four blocks so each leaf covers only about
	// a quarter of the tables, staying under the LSEI's frequent-type filter
	// (types in more than half of all tables are dropped before shingling).
	const leaves = 4
	playerLeaf := make([]kg.TypeID, leaves)
	teamLeaf := make([]kg.TypeID, leaves)
	for i := range playerLeaf {
		playerLeaf[i] = g.AddType(fmt.Sprintf("Player%c", 'A'+i), "")
		g.AddSubtype(playerLeaf[i], athlete)
		teamLeaf[i] = g.AddType(fmt.Sprintf("Team%c", 'A'+i), "")
		g.AddSubtype(teamLeaf[i], team)
	}

	players := make([]kg.EntityID, n)
	teams := make([]kg.EntityID, n)
	for i := 0; i < n; i++ {
		players[i] = g.AddEntity(fmt.Sprintf("player/%d", i), fmt.Sprintf("Player %d", i))
		teams[i] = g.AddEntity(fmt.Sprintf("team/%d", i), fmt.Sprintf("Team %d", i))
		leaf := i * leaves / n
		g.AssignType(players[i], playerLeaf[leaf])
		g.AssignType(teams[i], teamLeaf[leaf])
	}

	l := lake.New(g)
	cell := func(e kg.EntityID) table.Cell { return table.LinkedCell(g.Label(e), e) }
	for i := 0; i < n; i++ {
		tbl := table.New(fmt.Sprintf("roster-%d", i), []string{"Player", "Team"})
		tbl.AppendRow([]table.Cell{cell(players[i]), cell(teams[i])})
		tbl.AppendRow([]table.Cell{cell(players[(i+1)%n]), cell(teams[(i+1)%n])})
		l.Add(tbl)
	}
	return l, g, Query{Tuple{players[0], teams[0]}}
}

// slowSim delays every σ evaluation, making table scoring slow enough for a
// deadline to land mid-search deterministically. Scores delegate unchanged,
// so a truncated ranking stays comparable to the fast serial reference.
type slowSim struct {
	inner Similarity
	delay time.Duration
}

func (s slowSim) Score(a, b kg.EntityID) float64 {
	time.Sleep(s.delay)
	return s.inner.Score(a, b)
}

// cancelSim cancels a context after a fixed number of σ evaluations — a
// deterministic mid-search cancellation independent of machine speed.
type cancelSim struct {
	inner  Similarity
	after  int64
	calls  *atomic.Int64
	cancel context.CancelFunc
}

func (s cancelSim) Score(a, b kg.EntityID) float64 {
	if s.calls.Add(1) == s.after {
		s.cancel()
	}
	return s.inner.Score(a, b)
}

// requireRanked asserts descending scores with ascending-ID tie-breaks, the
// engine's total order.
func requireRanked(t *testing.T, results []Result) {
	t.Helper()
	for i := 1; i < len(results); i++ {
		a, b := results[i-1], results[i]
		if b.Score > a.Score || (b.Score == a.Score && b.Table <= a.Table) {
			t.Fatalf("results not ranked at %d: %v then %v", i, a, b)
		}
	}
}

// requireSubsetOfReference asserts every returned result carries exactly the
// score the serial reference computed for that table, with no duplicates.
func requireSubsetOfReference(t *testing.T, results []Result, ref map[lake.TableID]float64) {
	t.Helper()
	seen := make(map[lake.TableID]bool)
	for _, r := range results {
		if seen[r.Table] {
			t.Fatalf("table %d returned twice", r.Table)
		}
		seen[r.Table] = true
		want, ok := ref[r.Table]
		if !ok {
			t.Fatalf("table %d not in reference ranking", r.Table)
		}
		if r.Score != want {
			t.Fatalf("table %d score = %v, reference %v", r.Table, r.Score, want)
		}
	}
}

func referenceScores(results []Result) map[lake.TableID]float64 {
	ref := make(map[lake.TableID]float64, len(results))
	for _, r := range results {
		ref[r.Table] = r.Score
	}
	return ref
}

func TestSearchContextBackgroundMatchesSearch(t *testing.T) {
	l, g, q := stressLake(t, 12)
	eng := NewEngine(l, NewTypeJaccard(g))
	want, wantStats := eng.Search(q, -1)
	got, stats := eng.SearchContext(context.Background(), q, -1)
	if stats.Truncated || wantStats.Truncated {
		t.Fatal("uncancelled search reported Truncated")
	}
	if len(got) != len(want) {
		t.Fatalf("%d results vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diverged at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestSearchContextPreCancelled(t *testing.T) {
	l, g, q := stressLake(t, 12)
	eng := NewEngine(l, NewTypeJaccard(g))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, stats := eng.SearchContext(ctx, q, -1)
	if !stats.Truncated {
		t.Error("pre-cancelled search not marked Truncated")
	}
	if len(results) != 0 || stats.Scored != 0 {
		t.Errorf("pre-cancelled search scored tables: %v", results)
	}
	if stats.Candidates != l.NumTables() {
		t.Errorf("Candidates = %d, want %d", stats.Candidates, l.NumTables())
	}
}

// A deadline must return promptly with the correctly ranked prefix of
// tables scored before the cutoff — graceful degradation, not an error.
func TestSearchContextDeadlineTruncatesPromptly(t *testing.T) {
	l, g, q := stressLake(t, 40)
	ref := NewEngine(l, NewTypeJaccard(g))
	full, _ := ref.Search(q, -1)
	refScores := referenceScores(full)

	eng := NewEngine(l, slowSim{inner: NewTypeJaccard(g), delay: 2 * time.Millisecond})
	eng.Parallelism = 2
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	start := time.Now()
	results, stats := eng.SearchContext(ctx, q, -1)
	elapsed := time.Since(start)

	if !stats.Truncated {
		t.Fatalf("deadline search not truncated (scored %d/%d in %v)",
			stats.Scored, stats.Candidates, elapsed)
	}
	if visited := stats.Scored + stats.Pruned; visited >= l.NumTables() {
		t.Errorf("truncated search visited all %d tables", visited)
	}
	// The full slow search would take well over a second (≥4 fresh σ calls
	// per table × 2ms × 40 tables per worker chain); the cutoff must land
	// within the deadline plus a few table-scoring granules.
	if elapsed > 500*time.Millisecond {
		t.Errorf("truncated search took %v, want prompt return", elapsed)
	}
	requireRanked(t, results)
	requireSubsetOfReference(t, results, refScores)
}

// Cancelling mid-search must never corrupt results: the returned prefix
// carries exact reference scores in correct rank order.
func TestSearchContextCancelMidSearch(t *testing.T) {
	l, g, q := stressLake(t, 40)
	ref := NewEngine(l, NewTypeJaccard(g))
	full, _ := ref.Search(q, -1)
	refScores := referenceScores(full)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	eng := NewEngine(l, cancelSim{inner: NewTypeJaccard(g), after: 20, calls: &calls, cancel: cancel})
	eng.Parallelism = 4
	results, stats := eng.SearchContext(ctx, q, -1)

	if !stats.Truncated {
		t.Fatal("mid-search cancellation not marked Truncated")
	}
	if visited := stats.Scored + stats.Pruned; visited >= l.NumTables() {
		t.Errorf("cancelled search visited all %d tables", visited)
	}
	requireRanked(t, results)
	requireSubsetOfReference(t, results, refScores)
}

// Top-k output must be byte-identical across worker counts: per-table
// scores are computed sequentially by exactly one worker, so no float64
// reassociation can occur, and ties break on table ID.
func TestSearchDeterminismAcrossParallelism(t *testing.T) {
	l, g, q := stressLake(t, 37)
	serial := NewEngine(l, NewTypeJaccard(g))
	serial.Parallelism = 1
	want, _ := serial.Search(q, -1)
	if len(want) == 0 {
		t.Fatal("reference search returned nothing")
	}
	requireRanked(t, want)
	for _, p := range []int{4, 16} {
		eng := NewEngine(l, NewTypeJaccard(g))
		eng.Parallelism = p
		got, _ := eng.Search(q, -1)
		if len(got) != len(want) {
			t.Fatalf("P=%d: %d results vs %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("P=%d diverged at %d: %v vs %v (scores must be exactly equal)",
					p, i, got[i], want[i])
			}
		}
	}
}

// Shuffling the candidate ordering must not change the ranked output.
func TestSearchDeterminismShuffledCandidates(t *testing.T) {
	l, g, q := stressLake(t, 37)
	eng := NewEngine(l, NewTypeJaccard(g))
	eng.Parallelism = 4
	candidates := make([]lake.TableID, l.NumTables())
	for i := range candidates {
		candidates[i] = lake.TableID(i)
	}
	want, _ := eng.SearchCandidates(q, candidates, -1)
	for seed := int64(1); seed <= 3; seed++ {
		shuffled := append([]lake.TableID(nil), candidates...)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		got, _ := eng.SearchCandidates(q, shuffled, -1)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d results vs %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d diverged at %d: %v vs %v", seed, i, got[i], want[i])
			}
		}
	}
}

func TestPrefilterContextCancelled(t *testing.T) {
	l, g, q := stressLake(t, 24)
	tj := NewTypeJaccard(g)
	x := BuildTypeLSEI(l, tj, DefaultLSEIConfig())
	want := x.Candidates(q, 1)
	if len(want) == 0 {
		t.Fatal("prefilter returned no candidates")
	}
	got := x.CandidatesTracedContext(context.Background(), q, 1, nil)
	if len(got) != len(want) {
		t.Fatalf("background context changed candidates: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidate %d = %v, want %v", i, got[i], want[i])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	partial := x.CandidatesTracedContext(ctx, q, 1, nil)
	inFull := make(map[lake.TableID]bool, len(want))
	for _, id := range want {
		inFull[id] = true
	}
	for _, id := range partial {
		if !inFull[id] {
			t.Errorf("cancelled prefilter invented candidate %d", id)
		}
	}
	if len(partial) >= len(want) && len(want) > 0 {
		// A dead context is checked before the first probe, so the partial
		// set must be empty here.
		if len(partial) != 0 {
			t.Errorf("pre-cancelled prefilter returned %d candidates", len(partial))
		}
	}
}

// TestRaceStressSharedEngine hammers one shared Engine (and one shared
// LSEI) from many goroutines mixing brute-force and LSH-prefiltered
// searches while /metrics is scraped concurrently. Run under -race; every
// ranking must equal the serial reference exactly.
func TestRaceStressSharedEngine(t *testing.T) {
	l, g, q := stressLake(t, 30)
	tj := NewTypeJaccard(g)
	eng := NewEngine(l, tj)
	x := BuildTypeLSEI(l, tj, DefaultLSEIConfig())

	queries := []Query{
		q,
		{Tuple{ent2(t, g, "player/3"), ent2(t, g, "team/3")}},
		{Tuple{ent2(t, g, "player/7")}, Tuple{ent2(t, g, "team/8")}},
	}
	type reference struct {
		brute []Result
		cands []lake.TableID
		lsh   []Result
	}
	refs := make([]reference, len(queries))
	for i, qq := range queries {
		refs[i].brute, _ = eng.Search(qq, -1)
		refs[i].cands = x.Candidates(qq, 1)
		refs[i].lsh, _ = eng.SearchCandidates(qq, refs[i].cands, -1)
		if len(refs[i].brute) == 0 {
			t.Fatalf("query %d has empty reference", i)
		}
	}

	metrics := httptest.NewServer(obs.Default.Handler())
	defer metrics.Close()
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for i := 0; i < 3; i++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(metrics.URL)
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}

	const goroutines = 24
	const iterations = 15
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for gid := 0; gid < goroutines; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				qi := (gid + it) % len(queries)
				want := refs[qi]
				var got []Result
				if (gid+it)%2 == 0 {
					got, _ = eng.Search(queries[qi], -1)
					if err := sameResults(got, want.brute); err != nil {
						errc <- fmt.Errorf("goroutine %d brute query %d: %v", gid, qi, err)
						return
					}
				} else {
					cands := x.Candidates(queries[qi], 1)
					if len(cands) != len(want.cands) {
						errc <- fmt.Errorf("goroutine %d query %d: %d candidates, want %d",
							gid, qi, len(cands), len(want.cands))
						return
					}
					got, _ = eng.SearchCandidates(queries[qi], cands, -1)
					if err := sameResults(got, want.lsh); err != nil {
						errc <- fmt.Errorf("goroutine %d lsh query %d: %v", gid, qi, err)
						return
					}
				}
			}
		}(gid)
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func sameResults(got, want []Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("diverged at %d: %v vs %v", i, got[i], want[i])
		}
	}
	return nil
}

// ent2 is ent for the generated stress graph (distinct name to avoid
// clashing with the fixture helper's error message).
func ent2(t *testing.T, g *kg.Graph, uri string) kg.EntityID {
	t.Helper()
	e, ok := g.Lookup(uri)
	if !ok {
		t.Fatalf("stress entity %q missing", uri)
	}
	return e
}
