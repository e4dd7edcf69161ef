package thetis

// Throughput battery (docs/THROUGHPUT.md): SearchBatch must be
// bit-identical to sequential searches of the core-assembled reference
// (internal/reference) across aggregation × score mode × parallelism ×
// shard count × partitioner × LSH, truncation must cut the batch to
// correctly ranked prefixes, and the cross-query σ cache must never change
// a ranking — before or after mutation-epoch invalidation.

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"thetis/internal/core"
	"thetis/internal/reference"
)

// assertBatchEquals compares one SearchBatch answer against per-query
// sequential searches of the reference: same IDs, same scores (bit for
// bit), same order.
func assertBatchEquals(t *testing.T, label string, ref *reference.Reference, s *System, queries []Query, k int) {
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
}

// TestBatchMatchesSequential sweeps the deployment axis and the scoring
// matrix: a batch — every scatter leg of every query sharing one σ cache —
// must reproduce the reference's sequential rankings under every shard
// count, partitioner, aggregation, score mode, and parallelism, at top-10
// and unbounded k, unindexed and then LSEI-prefiltered (per-query candidate
// sets, full-scan rescatter on empty ones) at every vote threshold.
func TestBatchMatchesSequential(t *testing.T) {
	_, _, queries := batteryEnv(t)
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
// and every query must carry the Truncated mark.
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

	// Cancel mid-flight; retry with a later cancellation if the batch was
	// cut before any scoring happened, so the test exercises a non-empty
	// prefix at least once when the machine allows it.
	for _, delay := range []time.Duration{50 * time.Microsecond, 500 * time.Microsecond, 5 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), delay)
		results, stats := sys.SearchBatchContext(ctx, queries, -1)
		cancel()
		if !stats[0].Truncated {
			continue // batch finished before the deadline; nothing to check
		}
		for qi := range queries {
			if !stats[qi].Truncated {
				t.Fatalf("delay %v: q0 truncated but q%d not — truncation must be a batch property", delay, qi)
			}
			prev := math.Inf(1)
			for i, r := range results[qi] {
				want, ok := oracle[qi][r.Table]
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
	sys.EnableCrossCache(8 << 20)

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

// TestCrossCacheExactness runs the full query set twice with the cross
// cache on and compares every ranking against the cache-less reference:
// hit or miss, σ values are deterministic, so rankings must be
// bit-identical — and the second pass must actually hit.
func TestCrossCacheExactness(t *testing.T) {
	_, _, queries := batteryEnv(t)
	plain, cached := buildPair(t, NewHashPartitioner(1))
	cached.EnableCrossCache(16 << 20)
	for pass := 0; pass < 2; pass++ {
		for qi, q := range queries {
			want, _ := plain.Search(q, -1)
			got, _ := cached.SearchStats(q, -1)
			if len(got) != len(want) {
				t.Fatalf("pass %d q%d: cached returned %d results, plain %d", pass, qi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pass %d q%d rank %d: cached (%d, %.17g/%#x), plain (%d, %.17g/%#x)",
						pass, qi, i,
						got[i].Table, got[i].Score, math.Float64bits(got[i].Score),
						want[i].Table, want[i].Score, math.Float64bits(want[i].Score))
				}
			}
		}
	}
	st, ok := cached.CrossCacheStats()
	if !ok {
		t.Fatal("CrossCacheStats reports the cache as disabled")
	}
	if st.Hits == 0 {
		t.Fatalf("two passes over %d queries produced no cross-cache hits: %+v", len(queries), st)
	}
	cached.DisableCrossCache()
	if _, ok := cached.CrossCacheStats(); ok {
		t.Fatal("CrossCacheStats still reports enabled after DisableCrossCache")
	}
}

// TestCrossCacheInvalidationOnEpochBump pins the lifecycle: populate the
// cache, mutate the corpus (epoch bump), mutate again, and require every
// post-mutation ranking to match a from-scratch rebuild over the surviving
// corpus — cached σ from the old epoch must never leak into an answer.
func TestCrossCacheInvalidationOnEpochBump(t *testing.T) {
	kgEnv, tables, queries := batteryEnv(t)
	sys := New(kgEnv.Graph)
	for _, tb := range tables {
		sys.AddTable(tb)
	}
	sys.UseTypeSimilarity()
	sys.EnableCrossCache(16 << 20)
	before, _ := sys.CrossCacheStats()

	// Populate, then mutate: drop the first two tables, re-add one.
	sys.SearchBatch(queries, 10)
	if err := sys.RemoveTable(0); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveTable(1); err != nil {
		t.Fatal(err)
	}
	readded := sys.AddTable(tables[1])
	after, _ := sys.CrossCacheStats()
	if after.Epoch <= before.Epoch {
		t.Fatalf("mutations did not advance the cache epoch: %d -> %d", before.Epoch, after.Epoch)
	}

	// From-scratch reference over the survivors, in the live-ID order the
	// mutated system reports (tables 2..n-1, then the re-added table 1).
	ref := typeReference(t, append(append([]*Table(nil), tables[2:]...), tables[1]))
	liveIDs := make([]TableID, 0, len(tables)-1)
	for i := 2; i < len(tables); i++ {
		liveIDs = append(liveIDs, TableID(i))
	}
	liveIDs = append(liveIDs, readded)

	for pass := 0; pass < 2; pass++ { // second pass answers from the repopulated cache
		for qi, q := range queries {
			want, _ := ref.Search(q, 10)
			got, _ := sys.SearchStats(q, 10)
			if len(got) != len(want) {
				t.Fatalf("pass %d q%d: mutated returned %d results, rebuild %d", pass, qi, len(got), len(want))
			}
			for i := range want {
				wantID := liveIDs[int(want[i].Table)]
				if got[i].Table != wantID || got[i].Score != want[i].Score {
					t.Fatalf("pass %d q%d rank %d: mutated (%d, %.17g), rebuild (%d→%d, %.17g)",
						pass, qi, i, got[i].Table, got[i].Score, want[i].Table, wantID, want[i].Score)
				}
			}
		}
	}
}

// TestCrossCacheSharded checks the deployment-wide cache: one CrossCache
// shared by every shard engine must leave sharded rankings identical to
// the reference and collect hits across shards.
func TestCrossCacheSharded(t *testing.T) {
	_, _, queries := batteryEnv(t)
	sys, ss := buildPair(t, NewHashPartitioner(2))
	ss.EnableCrossCache(16 << 20)
	for pass := 0; pass < 2; pass++ {
		assertIdenticalRankings(t, "cross-sharded", sys, ss, queries, 10)
	}
	st, ok := ss.CrossCacheStats()
	if !ok {
		t.Fatal("sharded CrossCacheStats reports disabled")
	}
	if st.Hits == 0 {
		t.Fatalf("no cross-cache hits across shards: %+v", st)
	}
	ss.DisableCrossCache()
	if _, ok := ss.CrossCacheStats(); ok {
		t.Fatal("sharded CrossCacheStats still enabled after disable")
	}
}
