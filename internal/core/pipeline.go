package core

import (
	"context"
	"time"

	"thetis/internal/obs"
)

// PrefilterFallback selects what an index-backed search does when the LSH
// prefilter returns no candidates at all (e.g. every query entity's types
// were dropped by the frequent-type filter).
type PrefilterFallback int

const (
	// FallbackFullScan degrades to scoring the whole lake rather than
	// silently returning nothing — the single-node behavior, counted on
	// thetis_shard_rescatters_total. A search whose context is already
	// dead skips it, as a coordinator skips its rescatter.
	FallbackFullScan PrefilterFallback = iota
	// FallbackNone returns the empty ranking. Shards use this: whether a
	// full scan is warranted is only knowable globally, so the coordinator
	// makes that call after seeing every shard's candidate count.
	FallbackNone
)

// SearchWithIndex is the one search pipeline behind System searches and
// shard searches: LSEI prefilter (when ix is non-nil), candidate scoring,
// ranking. A nil ix scores the whole lake brute-force. The returned stats
// carry the full trace — prefilter probe/vote stages prepended to the
// engine's mapping/score/rank stages, with Trace.Total spanning everything
// (Stats.TotalTime remains engine-only, the quantity of the paper's
// Table 3). When ctx dies mid-search the results are a best-effort,
// correctly ranked prefix and Stats.Truncated is set.
func SearchWithIndex(ctx context.Context, eng *Engine, ix *LSEI, votes int, q Query, k int, fb PrefilterFallback) ([]Result, Stats) {
	if ix == nil {
		return eng.SearchContext(ctx, q, k)
	}
	start := time.Now()
	pre := obs.NewTrace("prefilter")
	cands := ix.CandidatesTracedContext(ctx, q, votes, pre)
	var (
		results []Result
		stats   Stats
	)
	if len(cands) > 0 || fb == FallbackNone || ctx.Err() != nil {
		// An empty candidate slice (non-nil) scores nothing and reports
		// Candidates: 0, which is what lets a coordinator distinguish "the
		// prefilter pruned everything" from "this shard scored and found
		// nothing".
		results, stats = eng.SearchCandidatesContext(ctx, q, cands, k)
	} else {
		// Keep the empty prefilter's stages so the trace shows why the
		// search degraded to a full scan.
		mFallbacks.Inc()
		results, stats = eng.SearchContext(ctx, q, k)
	}
	if ctx.Err() != nil {
		// A prefilter cut short also truncates the search, even when the
		// scoring phase over the partial candidate set happened to finish.
		stats.Truncated = true
	}
	stats.Trace.Prepend(pre.Stages...)
	stats.Trace.Total = time.Since(start)
	return results, stats
}
