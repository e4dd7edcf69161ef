package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"thetis"
	"thetis/internal/core"
)

// ShardsRow is one shard count of the scatter-gather sweep.
type ShardsRow struct {
	Shards int
	// Mean and P50 are per-query latencies through a thetis.System of that
	// shard count.
	Mean time.Duration
	P50  time.Duration
	// Delta is the relative overhead vs the direct unsharded path
	// (positive = slower than calling the engine directly).
	Delta float64
	// Identical reports whether every query's ranking — IDs and scores —
	// matched the direct path bit for bit.
	Identical bool
}

// ShardsResult measures scatter-gather serving (docs/SHARDING.md) against
// the direct single-engine path on the same corpus: every row is the same
// thetis.System type at a different shard count, so the 1-shard row
// isolates what serving through the system costs over calling the engine
// (serving lock, coordinator, merge), higher counts show how partitioning
// shifts latency, and the Identical column checks the
// shard-count-invariance contract end to end.
//
// Direct/DirectP50 report the direct path as timed alongside the 1-shard
// row; every row's Delta is computed against its own interleaved direct
// measurement, so machine-level drift between rows cancels out.
type ShardsResult struct {
	Queries   int
	Direct    time.Duration
	DirectP50 time.Duration
	Rows      []ShardsRow
}

// shardSweep returns the shard counts to benchmark: powers of two from 1
// up to max (always at least [1]).
func shardSweep(max int) []int {
	counts := []int{1}
	for n := 2; n <= max; n *= 2 {
		counts = append(counts, n)
	}
	return counts
}

// pairedSweep times the direct and sharded paths back to back, per query,
// over reps full passes, keeping each query's fastest time per side.
// Interleaving the two paths on every query pairs their machine state,
// and per-query minima discard
// one-off stalls (GC pauses, scheduler preemption) that would otherwise
// land on one side of a few-percent overhead comparison. The returned
// rankings come from the first pass — searches are deterministic, so any
// pass would do.
func pairedSweep(queries []core.Query, reps, k int, direct, sharded func(core.Query, int) []core.Result) (directBest, shardBest []time.Duration, directRanks, shardRanks [][]core.Result) {
	directBest = make([]time.Duration, len(queries))
	shardBest = make([]time.Duration, len(queries))
	for rep := 0; rep < reps; rep++ {
		for i, q := range queries {
			t0 := time.Now()
			dres := direct(q, k)
			dt := time.Since(t0)
			t1 := time.Now()
			sres := sharded(q, k)
			st := time.Since(t1)
			if rep == 0 {
				directBest[i], shardBest[i] = dt, st
				directRanks = append(directRanks, dres)
				shardRanks = append(shardRanks, sres)
				continue
			}
			if dt < directBest[i] {
				directBest[i] = dt
			}
			if st < shardBest[i] {
				shardBest[i] = st
			}
		}
	}
	return directBest, shardBest, directRanks, shardRanks
}

func sumDurations(ds []time.Duration) time.Duration {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total
}

func meanP50(times []time.Duration) (mean, p50 time.Duration) {
	sorted := append([]time.Duration(nil), times...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sumDurations(sorted) / time.Duration(len(sorted)), sorted[len(sorted)/2]
}

func sameRanking(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Table != b[i].Table || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// RunShards benchmarks scatter-gather search against the direct path with
// type-Jaccard σ and LSH (30,10) prefiltering, votes=3, top-10, over the
// combined 1- and 5-tuple query sets.
func RunShards(env *Env) ShardsResult {
	const (
		votes = 3
		topK  = 10
		reps  = 3
	)
	cfg := core.LSEIConfig{Vectors: 30, BandSize: 10, Seed: 1}
	queries := make([]core.Query, 0, len(env.Queries1)+len(env.Queries5))
	for _, bq := range env.Queries1 {
		queries = append(queries, bq.Query)
	}
	for _, bq := range env.Queries5 {
		queries = append(queries, bq.Query)
	}

	// Direct reference: Algorithm 1 assembled straight from internal/core,
	// including the empty-prefilter full-scan fallback the Coordinator
	// replaces with a rescatter.
	eng := env.EngineTypes()
	lsei := core.BuildTypeLSEI(env.Lake, env.TJ, cfg)
	direct := func(q core.Query, k int) []core.Result {
		res, _ := core.SearchWithIndex(context.Background(), eng, lsei, votes, q, k, core.FallbackFullScan)
		return res
	}

	out := ShardsResult{Queries: len(queries)}
	maxShards := env.Config.Shards
	if maxShards < 1 {
		maxShards = 4
	}
	for _, n := range shardSweep(maxShards) {
		sys := buildShardedDeployment(env, n, cfg, votes)
		directTimes, times, directRanks, ranks := pairedSweep(queries, reps, topK, direct, sys.Search)
		identical := true
		for i := range ranks {
			if !sameRanking(ranks[i], directRanks[i]) {
				identical = false
				break
			}
		}
		directMean, directP50 := meanP50(directTimes)
		if n == 1 {
			out.Direct, out.DirectP50 = directMean, directP50
		}
		mean, p50 := meanP50(times)
		out.Rows = append(out.Rows, ShardsRow{
			Shards: n, Mean: mean, P50: p50,
			Delta:     float64(mean-directMean) / float64(directMean),
			Identical: identical,
		})
	}
	return out
}

// buildShardedDeployment hash-partitions the environment's corpus into an
// n-shard thetis.System with type-Jaccard σ and a built LSEI.
func buildShardedDeployment(env *Env, n int, cfg core.LSEIConfig, votes int) *thetis.System {
	sys := thetis.NewSharded(env.KG.Graph, thetis.NewHashPartitioner(n))
	for id := 0; id < env.Lake.NumTables(); id++ {
		sys.AddTable(env.Lake.Table(thetis.TableID(id)))
	}
	sys.UseTypeSimilarity()
	sys.BuildIndex(cfg)
	sys.SetVotes(votes)
	return sys
}

// Render prints the scatter-gather sweep.
func (r ShardsResult) Render(w io.Writer) {
	renderHeader(w, "Sharded scatter-gather: coordinator overhead and invariance, LSH(30,10) votes=3 top-10")
	fmt.Fprintf(w, "direct path: mean %v, p50 %v over %d queries (interleaved with each row, per-query best of 3 passes)\n\n",
		r.Direct.Round(time.Microsecond), r.DirectP50.Round(time.Microsecond), r.Queries)
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Shards\tMean\tP50\tΔ vs direct\tIdentical ranking")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%d\t%v\t%v\t%+.1f%%\t%v\n",
			row.Shards, row.Mean.Round(time.Microsecond), row.P50.Round(time.Microsecond),
			100*row.Delta, row.Identical)
	}
	tw.Flush()
}
