// Package shard implements scatter-gather search over remote shard
// daemons: a Coordinator fans each query out to its shards (Searchers)
// concurrently and merges the per-shard rankings into one global top-k
// (core.MergeRanked). Two types implement Searcher: remote.Shard, the
// coordinator's HTTP client for one shard daemon, and *thetis.System, which
// answers a leg from its own lake (docs/SHARDING.md).
//
// Three pieces of state must stay global for a sharded search to rank
// exactly like an unsharded one — see docs/SHARDING.md for the full
// argument:
//
//   - informativeness weights (core.IDFInformativeness over the whole
//     corpus): an entity's weight depends on how many tables of the whole
//     corpus mention it;
//   - the LSEI frequent-type filter (core.FrequentTypesOver the whole
//     corpus): which types are "too common to be informative" is a
//     corpus-level property;
//   - the empty-prefilter full-scan fallback: whether any shard found
//     candidates is only knowable after the scatter, so shards never fall
//     back on their own (core.FallbackNone) and the Coordinator rescatters
//     with SearchOptions.ForceFullScan when the global candidate count is
//     zero.
//
// Package thetis re-exports Searcher as thetis.Shard; a thetis.System
// scatters through a Coordinator in coordinator mode (thetisd -shard-urls).
package shard

import (
	"context"

	"thetis/internal/core"
)

// SearchOptions modulates one scatter leg.
type SearchOptions struct {
	// ForceFullScan bypasses the shard's LSEI and scores the shard's whole
	// table slice. The Coordinator sets it on the rescatter round that
	// replaces the single-node full-scan fallback after a globally empty
	// prefilter.
	ForceFullScan bool
}

// Searcher is one shard of a scatter-gather deployment. Implementations
// must return table IDs from the GLOBAL ID space — shards own disjoint
// global ID ranges and the merge never deduplicates or translates — ranked
// exactly like core.Engine ranks: descending score, ascending table ID
// within equal scores. Stats follow the single-shard contract; in
// particular Truncated marks the results as a correctly ranked prefix of
// what a full evaluation would have returned.
//
// remote.Shard implements it by proxying to a remote daemon, which answers
// through thetis.System's implementation (docs/SHARDING.md).
type Searcher interface {
	SearchShard(ctx context.Context, q core.Query, k int, opts SearchOptions) ([]core.Result, core.Stats)
}
