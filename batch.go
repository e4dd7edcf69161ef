package thetis

import (
	"context"

	"thetis/internal/core"
	"thetis/internal/obs"
)

// Throughput mode (docs/THROUGHPUT.md): the batch search API and the
// opt-in cross-query σ cache. SearchBatch scores N queries against one
// corpus snapshot with a batch-scoped σ cache, bit-identical to N
// sequential Search calls; EnableCrossCache persists σ pairs across
// searches under mutation-epoch invalidation.

// CrossCacheStats snapshots the cross-query σ cache
// (System.CrossCacheStats).
type CrossCacheStats = core.CrossCacheStats

var (
	mBatchSearches = obs.SearchBatchTotal()
	mBatchQueries  = obs.SearchBatchQueries()
)

// SearchBatch scores every query of the batch and returns per-query
// top-k rankings in query order. It is SearchBatchContext with a
// background context.
func (s *System) SearchBatch(queries []Query, k int) ([][]Result, []SearchStats) {
	return s.SearchBatchContext(context.Background(), queries, k)
}

// SearchBatchContext runs a batch of queries through the shard coordinator
// under a single read lock: every query sees the same corpus epoch, each
// keeps its own LSEI prefilter (with the usual full-scan rescatter), and
// every scatter leg of every query shares one batch-scoped σ cache covering
// the union of the batch's entities (core.WithBatchSigma), so a σ pair
// touched by several queries is computed once per batch. Results and stats
// come back in query order and are bit-identical to issuing the queries
// sequentially through SearchStatsContext against an unchanged corpus.
//
// Cancellation truncates the batch from the query it interrupts onwards:
// that query and every later one return a correctly ranked (possibly
// empty) prefix marked Truncated.
//
// In coordinator mode the legs run in other processes, so there is no
// local σ cache to share; each daemon applies its own caching.
func (s *System) SearchBatchContext(ctx context.Context, queries []Query, k int) ([][]Result, []SearchStats) {
	s.mustEngine()
	s.mu.RLock()
	defer s.mu.RUnlock()
	mBatchSearches.Inc()
	mBatchQueries.Observe(float64(len(queries)))
	if s.remotes == nil {
		ctx = core.WithBatchSigma(ctx, core.NewBatchSigma(queries, s.engine().Sim, s.graph.NumEntities()))
	}
	results := make([][]Result, len(queries))
	stats := make([]SearchStats, len(queries))
	for i, q := range queries {
		results[i], stats[i] = s.coord.Search(ctx, q, k)
	}
	return results, stats
}

// EnableCrossCache attaches one cross-query σ cache of roughly maxBytes,
// shared by every shard's engine — σ is a global entity-pair property, so
// shards can share entries (docs/THROUGHPUT.md). Call it at setup time,
// after selecting a similarity; later similarity changes and Refresh
// reattach (and flush) it automatically, and every mutation advances its
// epoch so stale entries lazily invalidate. Resize by enabling again.
// Results are bit-identical with or without it.
func (s *System) EnableCrossCache(maxBytes int64) {
	s.mustEngine()
	cross := core.NewCrossCache(maxBytes)
	cross.SetEpoch(s.epoch.Load())
	s.attachCross(cross)
}

// DisableCrossCache detaches the cross-query σ cache — the runtime escape
// hatch mirroring DisableSigmaCache's role for the query-scoped cache.
func (s *System) DisableCrossCache() { s.attachCross(nil) }

func (s *System) attachCross(cross *core.CrossCache) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cross = cross
	for _, sh := range s.shards {
		if eng := sh.Engine(); eng != nil {
			eng.Cross = cross
		}
	}
}

// CrossCacheStats snapshots the cross-query σ cache; ok is false when the
// cache is not enabled.
func (s *System) CrossCacheStats() (CrossCacheStats, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.cross == nil {
		return CrossCacheStats{}, false
	}
	return s.cross.Stats(), true
}
