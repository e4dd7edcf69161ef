package thetis_test

// Deadline behavior against the full synthetic benchmark corpus: a search
// whose context expires must return promptly with a correctly ranked,
// Truncated-marked prefix — the graceful-degradation contract of
// core.Engine.SearchContext.

import (
	"context"
	"testing"
	"time"

	"thetis/internal/core"
	"thetis/internal/lake"
)

func TestSearchContextDeadlineOnFullCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full synthetic benchmark environment")
	}
	env := benchEnvironment(t)
	eng := core.NewEngine(env.Lake, env.TJ)
	q := env.Queries5[0].Query

	// The lake memoizes per-table column indexes on first use
	// (docs/PERFORMANCE.md §4), so a cold search is slower than every
	// search after it. Warm the corpus first: the deadline below is scaled
	// from the calibration search's TotalTime and must reflect the
	// steady-state speed of the timed search, not one-time build cost.
	eng.Search(q, -1)

	// Serial reference over the full corpus for score verification, and
	// proof that an unbounded search takes real time on this corpus.
	full, fullStats := eng.Search(q, -1)
	if len(full) == 0 {
		t.Fatal("reference search returned nothing")
	}
	ref := make(map[lake.TableID]float64, len(full))
	for _, r := range full {
		ref[r.Table] = r.Score
	}

	// A deadline well under the full search time must truncate. Searches
	// faster than 10ms end-to-end make the deadline meaningless; scale it
	// down so the cutoff still lands mid-search.
	deadline := 10 * time.Millisecond
	if fullStats.TotalTime < 10*deadline {
		deadline = fullStats.TotalTime / 10
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	results, stats := eng.SearchContext(ctx, q, 10)
	elapsed := time.Since(start)

	if !stats.Truncated {
		t.Fatalf("deadline %v did not truncate (full search takes %v, scored %d/%d)",
			deadline, fullStats.TotalTime, stats.Scored, stats.Candidates)
	}
	// Tables visited, not tables scored: a top-k search prunes most of what
	// it visits, so Scored alone could never reach the corpus size.
	if visited := stats.Scored + stats.Pruned; visited >= env.Lake.NumTables() {
		t.Errorf("truncated search visited the whole corpus (%d tables)", visited)
	}
	// The cancellation granule is one table, so the search must return
	// within roughly the deadline plus a few table-scoring granules — far
	// below the full corpus scan. The bound is generous for slow CI.
	if budget := deadline + 500*time.Millisecond; elapsed > budget {
		t.Errorf("truncated search took %v, want under %v (full search: %v)",
			elapsed, budget, fullStats.TotalTime)
	}
	// The prefix must carry exact reference scores in rank order.
	for i, r := range results {
		want, ok := ref[r.Table]
		if !ok {
			t.Fatalf("result %d (table %d) not in reference ranking", i, r.Table)
		}
		if r.Score != want {
			t.Fatalf("table %d score = %v, reference %v", r.Table, r.Score, want)
		}
		if i > 0 && (r.Score > results[i-1].Score ||
			(r.Score == results[i-1].Score && r.Table <= results[i-1].Table)) {
			t.Fatalf("truncated results not ranked at %d: %v then %v", i, results[i-1], r)
		}
	}
}

func TestSearchContextExpiredOnFullCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full synthetic benchmark environment")
	}
	env := benchEnvironment(t)
	eng := core.NewEngine(env.Lake, env.TJ)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	results, stats := eng.SearchContext(ctx, env.Queries5[0].Query, 10)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("dead-context search took %v", elapsed)
	}
	if !stats.Truncated {
		t.Error("dead-context search not marked Truncated")
	}
	if len(results) != 0 {
		t.Errorf("dead-context search returned %d results", len(results))
	}
}
