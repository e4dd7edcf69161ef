package thetis

// Batch battery (docs/THROUGHPUT.md): SearchBatch must be
// bit-identical to sequential searches of the core-assembled reference
// (internal/reference) across aggregation × score mode × parallelism ×
// shard count × partitioner × LSH, and truncation must cut the batch to
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

// assertBatchEquals compares one SearchBatch answer against per-query
// sequential searches of the reference: same IDs, same scores (bit for
// bit), same order. It returns the batch's answer.
func assertBatchEquals(t *testing.T, label string, ref *reference.Reference, s *System, queries []Query, k int) ([][]Result, []SearchStats) {
	t.Helper()
	got, gotStats := s.SearchBatch(queries, k)
	for qi, q := range queries {
		want, wantStats := ref.Search(q, k)
		if gotStats[qi].Truncated || wantStats.Truncated {
			t.Fatalf("%s q%d: unexpected truncation (batch=%v sequential=%v)",
				label, qi, gotStats[qi].Truncated, wantStats.Truncated)
		}
		if len(got[qi]) != len(want) {
			t.Fatalf("%s q%d: batch returned %d results, sequential %d", label, qi, len(got[qi]), len(want))
		}
		for i := range want {
			if got[qi][i].Table != want[i].Table || got[qi][i].Score != want[i].Score {
				t.Fatalf("%s q%d rank %d: batch (%d, %.17g/%#x), sequential (%d, %.17g/%#x)",
					label, qi, i,
					got[qi][i].Table, got[qi][i].Score, math.Float64bits(got[qi][i].Score),
					want[i].Table, want[i].Score, math.Float64bits(want[i].Score))
			}
		}
	}
	return got, gotStats
}

// TestBatchMatchesSequential sweeps the deployment axis and the scoring
// matrix: a batch must reproduce the reference's sequential rankings under
// every shard count, partitioner, aggregation, score mode, and parallelism,
// at top-10 and unbounded k, unindexed and then LSEI-prefiltered (per-query
// candidate sets, full-scan rescatter on empty ones) at every vote
// threshold. A batch that repeats a query answers the repeat from the first
// occurrence: the same ranking bit for bit in a slice of its own, the same
// Candidates and Scored, and no search — zero σ lookups, zero TotalTime.
func TestBatchMatchesSequential(t *testing.T) {
	_, _, queries := batteryEnv(t)
	repeated := []Query{queries[0], queries[1], queries[0]}
	for _, ax := range shardAxes() {
		ref, sys := buildPair(t, ax.part())
		for _, cfg := range []struct {
			name string
			agg  Aggregation
			mode ScoreMode
			par  int
		}{
			{"max-entitywise-par0", AggregateMax, ModeEntityWise, 0},
			{"avg-entitywise-par1", AggregateAvg, ModeEntityWise, 1},
			{"max-pairwise-par4", AggregateMax, ModePairwise, 4},
			{"avg-pairwise-par1", AggregateAvg, ModePairwise, 1},
		} {
			ref.Engine.Agg, ref.Engine.Mode, ref.Engine.Parallelism = cfg.agg, cfg.mode, cfg.par
			sys.SetAggregation(cfg.agg)
			sys.SetScoreMode(cfg.mode)
			sys.SetParallelism(cfg.par)
			assertBatchEquals(t, ax.name+"/"+cfg.name, ref, sys, queries, 10)
			assertBatchEquals(t, ax.name+"/"+cfg.name+"/all", ref, sys, queries[:2], -1)
			res, st := assertBatchEquals(t, ax.name+"/"+cfg.name+"/repeat", ref, sys, repeated, 10)
			first, again := st[0], st[2]
			if first.SigmaHits+first.SigmaMisses == 0 || first.TotalTime == 0 {
				t.Fatalf("%s/%s: first occurrence was not searched: %+v", ax.name, cfg.name, first)
			}
			if again.SigmaHits+again.SigmaMisses != 0 || again.TotalTime != 0 || again.MappingTime != 0 ||
				again.Candidates != first.Candidates || again.Scored != first.Scored || again.Pruned != first.Pruned || again.Trace == nil {
				t.Fatalf("%s/%s: repeated query reports %+v, want the first occurrence's counts %+v with zero times and σ lookups",
					ax.name, cfg.name, again, first)
			}
			if !slices.Equal(res[2], res[0]) || len(res[0]) == 0 || &res[2][0] == &res[0][0] {
				t.Fatalf("%s/%s: the repeat must be an independent copy of the first occurrence's ranking", ax.name, cfg.name)
			}
		}
		ref.Index = core.BuildTypeLSEI(ref.Lake, batteryTJ, DefaultIndexConfig())
		sys.BuildIndex(DefaultIndexConfig())
		for _, votes := range []int{1, 2, 3} {
			ref.Votes = votes
			sys.SetVotes(votes)
			assertBatchEquals(t, ax.name+"/lsh", ref, sys, queries, 10)
		}
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
	// rebuild over the original tables must agree bit for bit.
	ref := typeReference(t, tables)
	for qi, q := range queries {
		want, _ := ref.Search(q, 10)
		got, _ := sys.SearchStats(q, 10)
		if len(got) != len(want) {
			t.Fatalf("q%d: post-mutation system returned %d results, rebuild %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("q%d rank %d: post-mutation %+v, rebuild %+v", qi, i, got[i], want[i])
			}
		}
	}
}
