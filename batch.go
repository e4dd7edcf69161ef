package thetis

import (
	"context"

	"thetis/internal/core"
	"thetis/internal/obs"
)

// The batch search API (docs/THROUGHPUT.md): SearchBatch scores N queries
// against one corpus snapshot with a batch-scoped σ cache, bit-identical
// to N sequential Search calls.

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
