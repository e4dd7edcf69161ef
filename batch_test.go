package thetis

// Batch battery (docs/THROUGHPUT.md): SearchBatch must be bit-identical to
// the system's sequential searches and rank like the oracle-scored reference
// (internal/reference), under the oracle's comparison rule, across
// aggregation × parallelism × LSH, and truncation must cut the batch to
// correctly ranked prefixes.

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"thetis/internal/core"
	"thetis/internal/reference"
)

// assertBatchEquals compares one SearchBatch answer against the system's
// own sequential searches (same IDs, same scores bit for bit, same order)
// and against the reference's ranking of each query under the oracle's
// comparison rule. It returns the batch's answer.
func assertBatchEquals(t *testing.T, label string, ref *reference.Reference, s *System, queries []Query, k int) ([][]Result, []SearchStats) {
	t.Helper()
	got, gotStats := s.SearchBatch(queries, k)
	for qi, q := range queries {
		seq, seqStats := s.SearchStats(q, k)
		if gotStats[qi].Truncated || seqStats.Truncated {
			t.Fatalf("%s q%d: unexpected truncation (batch=%v sequential=%v)",
				label, qi, gotStats[qi].Truncated, seqStats.Truncated)
		}
		if !slices.Equal(got[qi], seq) {
			t.Fatalf("%s q%d: batch %v, sequential %v", label, qi, got[qi], seq)
		}
		if err := ref.Agree(got[qi], ref.Search(q, -1), k); err != nil {
			t.Fatalf("%s q%d: %v", label, qi, err)
		}
	}
	return got, gotStats
}

// TestBatchMatchesSequential sweeps the scoring matrix: a batch must
// reproduce the reference's rankings under every aggregation and
// parallelism, at top-10 and unbounded k, unindexed and then LSEI-prefiltered (per-query
// candidate sets, full-scan rescatter on empty ones) at every vote
// threshold. A batch that repeats a query answers the repeat from the first
// occurrence: the same ranking bit for bit in a slice of its own, the same
// Candidates and Scored, and no search — zero σ lookups, zero TotalTime.
func TestBatchMatchesSequential(t *testing.T) {
	_, _, queries := batteryEnv(t)
	repeated := []Query{queries[0], queries[1], queries[0]}
	ref, sys := buildPair(t)
	for _, cfg := range []struct {
		name string
		agg  Aggregation
		par  int
	}{
		{"max-par0", AggregateMax, 0},
		{"avg-par1", AggregateAvg, 1},
		{"max-par4", AggregateMax, 4},
		{"avg-par4", AggregateAvg, 4},
	} {
		ref.Agg = cfg.agg
		sys.SetAggregation(cfg.agg)
		sys.SetParallelism(cfg.par)
		assertBatchEquals(t, cfg.name, ref, sys, queries, 10)
		assertBatchEquals(t, cfg.name+"/all", ref, sys, queries[:2], -1)
		res, st := assertBatchEquals(t, cfg.name+"/repeat", ref, sys, repeated, 10)
		first, again := st[0], st[2]
		if first.SigmaHits+first.SigmaMisses == 0 || first.TotalTime == 0 {
			t.Fatalf("%s: first occurrence was not searched: %+v", cfg.name, first)
		}
		if again.SigmaHits+again.SigmaMisses != 0 || again.TotalTime != 0 || again.MappingTime != 0 ||
			again.Candidates != first.Candidates || again.Scored != first.Scored || again.Pruned != first.Pruned || again.Trace == nil {
			t.Fatalf("%s: repeated query reports %+v, want the first occurrence's counts %+v with zero times and σ lookups",
				cfg.name, again, first)
		}
		if !slices.Equal(res[2], res[0]) || len(res[0]) == 0 || &res[2][0] == &res[0][0] {
			t.Fatalf("%s: the repeat must be an independent copy of the first occurrence's ranking", cfg.name)
		}
	}
	ref.Index = core.BuildTypeLSEI(ref.Lake, batteryTJ, DefaultIndexConfig())
	sys.BuildIndex(DefaultIndexConfig())
	for _, votes := range []int{1, 2, 3} {
		ref.Votes = votes
		sys.SetVotes(votes)
		assertBatchEquals(t, "lsh", ref, sys, queries, 10)
	}
}

// TestBatchCancelledContext pins whole-batch truncation: a context dead on
// arrival yields empty, Truncated-marked rankings for every query — not an
// error, not a partial mix.
func TestBatchCancelledContext(t *testing.T) {
	kgEnv, tables, queries := batteryEnv(t)
	sys := New(kgEnv.Graph)
	for _, tb := range tables {
		sys.AddTable(tb)
	}
	sys.UseTypeSimilarity()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, stats := sys.SearchBatchContext(ctx, queries, 10)
	for qi := range queries {
		if !stats[qi].Truncated {
			t.Errorf("q%d: cancelled batch not marked Truncated", qi)
		}
		if len(results[qi]) != 0 {
			t.Errorf("q%d: cancelled batch returned %d results, want 0", qi, len(results[qi]))
		}
	}
}

// TestBatchTruncationMidBatch cancels while the batch is scoring. Whatever
// prefix survives must be a correctly ranked subset of the sequential
// ranking — same scores for the tables it does return, descending order —
// and from the query the cut interrupts onwards every query must carry the
// Truncated mark. The batch states every query twice, so each repeat comes
// after the cut: one whose first occurrence completed must not be answered
// from it once the context has ended, and one whose first occurrence was
// truncated must not inherit its prefix as a complete answer.
func TestBatchTruncationMidBatch(t *testing.T) {
	kgEnv, tables, queries := batteryEnv(t)
	sys := New(kgEnv.Graph)
	for _, tb := range tables {
		sys.AddTable(tb)
	}
	sys.UseTypeSimilarity()
	sys.SetParallelism(2)

	// Full sequential rankings as score oracle.
	oracle := make([]map[TableID]float64, len(queries))
	for qi, q := range queries {
		oracle[qi] = map[TableID]float64{}
		full, _ := sys.SearchStats(q, -1)
		for _, r := range full {
			oracle[qi][r.Table] = r.Score
		}
	}
	batch := slices.Concat(queries, queries)

	// Cancel mid-flight, later and later until the batch outruns the
	// deadline, so the cut lands before, inside and after first occurrences
	// when the machine allows it.
	for delay := 50 * time.Microsecond; delay < time.Second; delay *= 2 {
		ctx, cancel := context.WithTimeout(context.Background(), delay)
		results, stats := sys.SearchBatchContext(ctx, batch, -1)
		cancel()
		cut := slices.IndexFunc(stats, func(st SearchStats) bool { return st.Truncated })
		if cut < 0 {
			break // batch finished before the deadline; nothing to check
		}
		for qi := range batch {
			if qi >= cut && !stats[qi].Truncated {
				t.Fatalf("delay %v: q%d truncated but q%d not — truncation runs from the interrupted query to the end of the batch", delay, cut, qi)
			}
			prev := math.Inf(1)
			for i, r := range results[qi] {
				want, ok := oracle[qi%len(queries)][r.Table]
				if !ok || r.Score != want {
					t.Fatalf("delay %v q%d rank %d: table %d score %.17g, oracle %.17g (present=%v)",
						delay, qi, i, r.Table, r.Score, want, ok)
				}
				if r.Score > prev {
					t.Fatalf("delay %v q%d rank %d: score %.17g above predecessor %.17g", delay, qi, i, r.Score, prev)
				}
				prev = r.Score
			}
		}
	}
}

// TestBatchMutationDuringBatch races SearchBatch against AddTable and
// RemoveTable under -race. Batches hold the read lock for their whole
// pass, so every answer must be internally consistent (all scores from one
// corpus epoch, descending); afterwards the corpus must still answer
// exactly like a from-scratch rebuild.
func TestBatchMutationDuringBatch(t *testing.T) {
	kgEnv, tables, queries := batteryEnv(t)
	sys := New(kgEnv.Graph)
	for _, tb := range tables {
		sys.AddTable(tb)
	}
	sys.UseTypeSimilarity()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Mutation loop: re-add a rotating table, remove the ID it got.
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := sys.AddTable(tables[i%len(tables)])
			if err := sys.RemoveTable(id); err != nil {
				t.Errorf("RemoveTable(%d): %v", id, err)
				return
			}
			i++
		}
	}()
	for pass := 0; pass < 8; pass++ {
		results, _ := sys.SearchBatch(queries, 10)
		for qi := range results {
			prev := math.Inf(1)
			for i, r := range results[qi] {
				if r.Score > prev {
					t.Fatalf("pass %d q%d rank %d: unsorted batch ranking", pass, qi, i)
				}
				prev = r.Score
			}
		}
	}
	close(stop)
	wg.Wait()

	// The mutation loop always removed what it added, so a from-scratch
	// reference over the original tables must agree.
	ref := typeReference(t, tables)
	for qi, q := range queries {
		got, _ := sys.SearchStats(q, 10)
		if err := ref.Agree(got, ref.Search(q, -1), 10); err != nil {
			t.Fatalf("q%d: post-mutation system against the rebuild: %v", qi, err)
		}
	}
}
