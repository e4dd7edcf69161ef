package thetis

import (
	"context"
	"slices"
	"time"

	"thetis/internal/obs"
)

// The batch search API (docs/THROUGHPUT.md): SearchBatch answers N queries
// against one corpus snapshot, bit-identical to N sequential Search calls.

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

// SearchBatchContext runs a batch of queries under a single read lock:
// every query sees the same corpus epoch and is otherwise searched exactly
// as SearchStatsContext would search it, so results and stats come back in
// query order and are bit-identical to issuing the queries one by one
// against an unchanged corpus.
//
// A query equal tuple for tuple to an earlier one of the batch that
// completed untruncated is not searched again: same snapshot, same answer,
// so it gets a copy of that ranking with the earlier Candidates, Scored and
// Pruned and zero times and σ counts.
//
// Cancellation truncates the batch from the query it interrupts onwards:
// that query and every later one — repeats included — return a correctly
// ranked (possibly empty) prefix marked Truncated.
func (s *System) SearchBatchContext(ctx context.Context, queries []Query, k int) ([][]Result, []SearchStats) {
	s.mustEngine()
	s.mu.RLock()
	defer s.mu.RUnlock()
	mBatchSearches.Inc()
	mBatchQueries.Observe(float64(len(queries)))
	results := make([][]Result, len(queries))
	stats := make([]SearchStats, len(queries))
	for i, q := range queries {
		first := slices.IndexFunc(queries[:i], func(p Query) bool {
			return slices.EqualFunc(p, q, slices.Equal[Tuple])
		})
		if first >= 0 && !stats[first].Truncated && !ended(ctx) {
			results[i], stats[i] = slices.Clone(results[first]), stats[first]
			stats[i].MappingTime, stats[i].TotalTime = 0, 0
			stats[i].SigmaHits, stats[i].SigmaMisses = 0, 0
			stats[i].Trace = obs.NewTrace("search")
			continue
		}
		results[i], stats[i] = s.search(ctx, q, k)
	}
	return results, stats
}

// ended reports whether ctx is cancelled or past its deadline by the clock;
// the timer that cancels a deadline context may not have run yet.
func ended(ctx context.Context) bool {
	deadline, timed := ctx.Deadline()
	return ctx.Err() != nil || timed && !time.Now().Before(deadline)
}
