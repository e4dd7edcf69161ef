package thetis

import (
	"context"
	"strconv"

	"thetis/internal/core"
	"thetis/internal/lake"
	"thetis/internal/obs"
	"thetis/internal/shard"
)

// Sharded scatter-gather serving (docs/SHARDING.md). These are the public
// seams of internal/shard: the Shard interface a scatter leg runs against,
// the Coordinator that fans out and merges, the Partitioner strategies
// that place tables, and the N-shard constructor of System (thetisd
// -shards).
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
	// Partitioner assigns tables to shards at ingestion time.
	Partitioner = lake.Partitioner
)

// NewCoordinator builds a scatter-gather coordinator over the given
// shards. The shards must own disjoint global table ID ranges and return
// engine-ordered rankings (descending score, ascending table ID on ties);
// the merged result is then independent of shard order and arrival order.
func NewCoordinator(shards ...Shard) *Coordinator { return shard.NewCoordinator(shards...) }

// NewHashPartitioner partitions tables by a hash of their name — the
// stateless, ingestion-order-independent default (thetisd -shard-by hash).
func NewHashPartitioner(n int) Partitioner { return lake.NewHashPartitioner(n) }

// NewBalancedPartitioner partitions tables onto the least-loaded shard by
// cell count — evens scoring work under skewed table sizes at the cost of
// order-dependent placement (thetisd -shard-by size).
func NewBalancedPartitioner(n int) Partitioner { return lake.NewBalancedPartitioner(n) }

// shardLoc locates a global table ID: which shard owns it, under which
// shard-local ID. A removed table keeps its slot with shard == -1 — global
// IDs, like lake slots, are never reused.
type shardLoc struct {
	shard int32
	local lake.TableID
}

// NewSharded creates an empty semantic data lake over graph g partitioned
// into part.Shards() in-process shards, placing tables with part (e.g.
// NewHashPartitioner(4)). It ranks bit-for-bit like New(g) over the same
// ingestion sequence, regardless of shard count, partitioning strategy,
// aggregation, score mode, or parallelism.
func NewSharded(g *Graph, part Partitioner) *System {
	if part == nil || part.Shards() < 1 {
		panic("thetis: NewSharded needs a partitioner with at least 1 shard")
	}
	n := part.Shards()
	s := &System{graph: g, part: part}
	s.shards = make([]*shard.Local, n)
	s.lakes = make([]*lake.Lake, n)
	searchers := make([]Shard, n)
	for i := 0; i < n; i++ {
		s.shards[i] = shard.NewLocal(i, g)
		s.lakes[i] = s.shards[i].Lake()
		searchers[i] = s.shards[i]
	}
	s.coord = NewCoordinator(searchers...)
	return s
}

// NumShards returns how many shards a search fans out to.
func (s *System) NumShards() int { return s.coord.NumShards() }

// ShardNumTables returns how many live tables in-process shard i owns
// (partitioning balance; also exported per shard on thetis_shard_tables).
func (s *System) ShardNumTables(i int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.shards[i].NumTables()
}

// SearchShard implements Shard, making a System usable as one scatter leg
// of a Coordinator — the shape a shard-over-HTTP deployment takes, where
// each remote daemon hosts one System (docs/SHARDING.md). The returned
// table IDs are the System's own, so the deployment must give each such
// System a disjoint ID range (or translate in the proxy). Unlike
// SearchStatsContext, an empty prefilter does not fall back to a full
// scan: the coordinator decides that globally and rescatters with
// opts.ForceFullScan.
func (s *System) SearchShard(ctx context.Context, q Query, k int, opts ShardSearchOptions) ([]Result, SearchStats) {
	s.mustEngine()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.coord.SearchShard(ctx, q, k, opts)
}

// PrepareIndex fixes the index configuration and computes the GLOBAL
// frequent-type filter every shard's LSEI will share — the second global
// that keeps prefiltering independent of the shard count: LSH signatures
// depend only on entity type sets, the filter, and the seed, so with one
// global filter a shard's candidate set is exactly the global candidate
// set intersected with the shard. Call it once, then BuildShardIndex per
// shard (BuildIndex does both).
func (s *System) PrepareIndex(cfg IndexConfig) {
	s.mustEngine()
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	s.prepareIndexLocked(cfg)
}

func (s *System) prepareIndexLocked(cfg IndexConfig) {
	cfg.FrequentTypeThreshold = thresholdOf(cfg)
	s.indexCfg = cfg
	s.typeFilter, s.filterState = nil, nil
	if !s.embeddingSim() {
		// The filter state both computes the global filter (equal to
		// FrequentTypesOver) and keeps it — and every shard's signatures —
		// current under later mutations.
		s.filterState = core.NewTypeFilterState(s.lakes, s.tj, cfg.FrequentTypeThreshold)
		s.typeFilter = s.filterState.Filter()
	}
}

// BuildShardIndex builds and hot-swaps shard i's LSEI using the
// configuration and global filter fixed by PrepareIndex. Safe to run
// concurrently with searches (the shard serves brute force until the
// swap); builds serialize with mutations and each other on the
// maintenance lock — the mechanism behind per-shard degraded-mode serving
// (server.ActivateIndex).
func (s *System) BuildShardIndex(i int) {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	s.buildShardIndexLocked(i)
}

func (s *System) buildShardIndexLocked(i int) {
	sh := s.shards[i]
	var ix *core.LSEI
	if s.embeddingSim() {
		ix = core.BuildEmbeddingLSEI(sh.Lake(), s.ec, s.store.Dim(), s.indexCfg)
	} else {
		ix = core.BuildTypeLSEIFiltered(sh.Lake(), s.tj, s.indexCfg, s.typeFilter)
	}
	sh.SetIndex(ix)
	obs.ShardIndexItems(nil, strconv.Itoa(i)).Set(float64(ix.NumItems()))
}

// BuildIndex builds the LSH prefiltering index (LSEI) of every shard for
// the currently selected similarity, synchronously (PrepareIndex +
// BuildShardIndex for each shard).
//
// Each index is built aside and installed atomically, so BuildIndex may
// run concurrently with searches (which serve brute-force until the swap).
// It serializes against ingestion via the maintenance lock; similarity
// changes remain setup-time. The daemon instead activates shards in the
// background so they hot-swap independently.
func (s *System) BuildIndex(cfg IndexConfig) {
	s.mustEngine()
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	s.rebuildIndexesLocked(cfg)
}

func (s *System) rebuildIndexesLocked(cfg IndexConfig) {
	s.prepareIndexLocked(cfg)
	for i := range s.shards {
		s.buildShardIndexLocked(i)
	}
}

// HasIndex reports whether every shard has an active LSEI.
func (s *System) HasIndex() bool { return len(s.liveIndexes()) == len(s.shards) }

func (s *System) hasAnyIndex() bool { return len(s.liveIndexes()) > 0 }

// liveIndexes collects every shard's active LSEI (shards still building
// serve brute-force and have none; their eventual build uses the filter's
// then-current state).
func (s *System) liveIndexes() []*core.LSEI {
	var out []*core.LSEI
	for _, sh := range s.shards {
		if ix := sh.Index(); ix != nil {
			out = append(out, ix)
		}
	}
	return out
}
