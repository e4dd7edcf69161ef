// Package shard implements sharded scatter-gather search: the corpus is
// partitioned into shards (lake.Partitioner), each shard owns its slice of
// the tables with its own LSEI, LSH index, column-index memos, and
// query-scoped σ caches, and a Coordinator fans each query out to every
// shard concurrently and merges the per-shard rankings into one global
// top-k (core.MergeRanked).
//
// Three pieces of state must stay global for a sharded search to rank
// exactly like an unsharded one — see docs/SHARDING.md for the full
// argument:
//
//   - informativeness weights (core.IDFInformativenessOver): an entity's
//     weight depends on how many tables of the whole corpus mention it;
//   - the LSEI frequent-type filter (core.FrequentTypesOver): which types
//     are "too common to be informative" is a corpus-level property;
//   - the empty-prefilter full-scan fallback: whether any shard found
//     candidates is only knowable after the scatter, so shards never fall
//     back on their own (core.FallbackNone) and the Coordinator rescatters
//     with SearchOptions.ForceFullScan when the global candidate count is
//     zero.
//
// The public façade (package thetis) re-exports Searcher as thetis.Shard
// and wires this machinery into thetis.System — every System is a
// Coordinator over one or more Locals (thetisd -shards).
package shard

import (
	"context"
	"strconv"
	"sync/atomic"

	"thetis/internal/core"
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/obs"
	"thetis/internal/table"
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
// Local implements it in-process; a future shard-over-HTTP client
// implements it by proxying to a remote daemon (docs/SHARDING.md).
type Searcher interface {
	SearchShard(ctx context.Context, q core.Query, k int, opts SearchOptions) ([]core.Result, core.Stats)
}

// Local is an in-process shard: one sub-lake plus its private search
// machinery. The assembler (thetis.System, or a test/benchmark
// harness) routes tables in via Add, installs a configured Engine whose
// Lake is the shard's lake — with GLOBAL informativeness weights — and
// optionally hot-swaps an LSEI built with the GLOBAL frequent-type filter.
//
// Ingestion and configuration must not run concurrently with searches;
// once configured, a Local is safe for concurrent searches, and SetIndex
// may hot-swap the LSEI under them (degraded-mode serving, per shard).
type Local struct {
	id string
	lk *lake.Lake

	// Engine scores this shard's tables. Set (and reconfigure) it through
	// SetEngine whenever the similarity changes; its Lake must be this
	// shard's lake.
	engine *core.Engine

	// index holds the shard's LSEI behind an atomic pointer so a
	// background build can hot-swap it under live searches, exactly like
	// the unsharded System's index.
	index atomic.Pointer[core.LSEI]
	votes atomic.Int32

	// global maps this shard's dense local table IDs to the lake-global
	// IDs the coordinator merges on. Append-only, in local ID order.
	global []lake.TableID

	tables *obs.Gauge
}

// NewLocal creates an empty shard with index id over graph g.
func NewLocal(id int, g *kg.Graph) *Local {
	s := &Local{id: strconv.Itoa(id), lk: lake.New(g)}
	s.votes.Store(1)
	s.tables = obs.ShardTables(nil, s.id)
	return s
}

// Lake exposes the shard's sub-lake (for engine construction and global
// frequency/filter computation across all shards).
func (s *Local) Lake() *lake.Lake { return s.lk }

// NumTables returns how many tables this shard owns.
func (s *Local) NumTables() int { return s.lk.NumTables() }

// Add ingests a table that the partitioner assigned to this shard,
// recording the global ID it answers with. Like System.AddTable, a live
// LSEI is extended incrementally. Returns the shard-local ID.
func (s *Local) Add(t *table.Table, global lake.TableID) lake.TableID {
	local := s.lk.Add(t)
	s.global = append(s.global, global)
	if ix := s.index.Load(); ix != nil {
		ix.AddTable(local)
	}
	s.tables.Set(float64(s.lk.NumTables()))
	return local
}

// Remove evicts a shard-local table from the lake and, when an index is
// live, from the LSEI — under whatever frequent-type filter is currently
// in force, which must still match the stored signatures (the assembler
// re-balances the shared filter AFTER this call). Returns the removed
// table (for the assembler's filter accounting), or nil when the local ID
// is not live. The local ID is tombstoned, never reused, preserving the
// monotone local→global mapping.
func (s *Local) Remove(local lake.TableID) *table.Table {
	t := s.lk.Table(local)
	if t == nil {
		return nil
	}
	s.lk.Remove(local)
	if ix := s.index.Load(); ix != nil {
		ix.RemoveTable(local, t)
	}
	s.tables.Set(float64(s.lk.NumTables()))
	return t
}

// GlobalID translates a shard-local table ID to its global ID.
func (s *Local) GlobalID(local lake.TableID) lake.TableID { return s.global[int(local)] }

// SetEngine installs the scoring engine. The engine's Lake must be this
// shard's lake; its Inf should be the global informativeness so rankings
// match the unsharded system. Installing an engine drops any built index
// (signatures depend on the similarity), mirroring System.Use*Similarity.
func (s *Local) SetEngine(eng *core.Engine) {
	s.engine = eng
	s.index.Store(nil)
}

// Engine returns the installed scoring engine (nil before SetEngine).
func (s *Local) Engine() *core.Engine { return s.engine }

// SetIndex atomically installs (or, with nil, removes) the shard's LSEI.
// Safe under concurrent searches — this is the per-shard hot-swap behind
// degraded-mode serving.
func (s *Local) SetIndex(ix *core.LSEI) { s.index.Store(ix) }

// Index returns the currently active LSEI, or nil.
func (s *Local) Index() *core.LSEI { return s.index.Load() }

// SetVotes sets the LSEI vote threshold used by SearchShard.
func (s *Local) SetVotes(v int) { s.votes.Store(int32(v)) }

// SearchShard runs the standard prefilter→score→rank pipeline over this
// shard's slice and translates the ranking to global IDs. The local→global
// mapping is monotone (globals are assigned in ingestion order), so the
// engine's tie-break on ascending local ID translates to ascending global
// ID and the merged ranking stays deterministic.
//
// Shards never fall back to a full scan on an empty prefilter
// (core.FallbackNone): zero candidates on every shard is the only
// condition that warrants one, and only the Coordinator sees it.
func (s *Local) SearchShard(ctx context.Context, q core.Query, k int, opts SearchOptions) ([]core.Result, core.Stats) {
	if s.engine == nil {
		panic("shard: SetEngine before SearchShard")
	}
	ix := s.index.Load()
	if opts.ForceFullScan {
		ix = nil
	}
	results, stats := core.SearchWithIndex(ctx, s.engine, ix, int(s.votes.Load()), q, k, core.FallbackNone)
	for i := range results {
		results[i].Table = s.global[int(results[i].Table)]
	}
	return results, stats
}
