package thetis

import (
	"context"

	"thetis/internal/core"
	"thetis/internal/lake"
	"thetis/internal/shard"
)

// Scatter-gather seams (docs/SHARDING.md), re-exported from internal/shard:
// the Shard interface a scatter leg runs against, the Coordinator that fans
// out and merges, and the hash Partitioner that places tables on remote
// shard daemons.
type (
	// Shard is one partition of a scatter-gather deployment: anything that
	// can answer a query with a ranked slice of GLOBAL table IDs. See
	// internal/shard.Searcher for the exact ranking/stats contract.
	Shard = shard.Searcher
	// ShardSearchOptions modulates one scatter leg (ForceFullScan).
	ShardSearchOptions = shard.SearchOptions
	// Coordinator scatters queries across Shards and merges the per-shard
	// rankings deterministically.
	Coordinator = shard.Coordinator
	// Partitioner assigns tables to shards by a hash of their name.
	Partitioner = lake.Partitioner
)

// NewCoordinator builds a scatter-gather coordinator over the given
// shards. The shards must own disjoint global table ID ranges and return
// engine-ordered rankings (descending score, ascending table ID on ties);
// the merged result is then independent of shard order and arrival order.
func NewCoordinator(shards ...Shard) *Coordinator { return shard.NewCoordinator(shards...) }

// NewHashPartitioner partitions tables over n shards by a hash of their
// name — stateless and independent of ingestion order, so a coordinator
// can replay it over its corpus (ShardGlobalIDs).
func NewHashPartitioner(n int) Partitioner { return lake.NewHashPartitioner(n) }

// SearchShard implements Shard, making a System usable as one scatter leg
// of a Coordinator — the shape a shard-over-HTTP deployment takes, where
// each remote daemon hosts one System (docs/SHARDING.md). It always
// answers from the System's own lake, in coordinator mode too, and the
// returned table IDs are the System's own, so the deployment must give
// each such System a disjoint ID range (or translate in the proxy). Unlike
// SearchStatsContext, an empty prefilter does not fall back to a full
// scan: the coordinator decides that globally and rescatters with
// opts.ForceFullScan, which searches without the index.
func (s *System) SearchShard(ctx context.Context, q Query, k int, opts ShardSearchOptions) ([]Result, SearchStats) {
	s.mustEngine()
	s.mu.RLock()
	defer s.mu.RUnlock()
	ix := s.index.Load()
	if opts.ForceFullScan {
		ix = nil
	}
	return core.SearchWithIndex(ctx, s.eng, ix, int(s.votes.Load()), q, k, core.FallbackNone)
}
