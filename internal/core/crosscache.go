package core

import (
	"sync"
	"sync/atomic"

	"thetis/internal/kg"
	"thetis/internal/obs"
)

// mCrossEvictions is incremented at eviction time rather than batched:
// evictions only happen once a shard is at capacity, so the counter costs
// nothing until the cache is full.
var mCrossEvictions = obs.CrossCacheEvictionsTotal()

// Cross-query σ memoization (docs/THROUGHPUT.md). The query-scoped
// SigmaCache dies with its search, so consecutive queries that share
// entities — the common case at production traffic, where query logs are
// heavily skewed — recompute the same σ pairs from scratch. A CrossCache
// persists those pairs across searches, keyed by the interned
// (query entity, corpus entity) pair and tagged with the index epoch of
// the moment they were computed: a mutation bumps the epoch (live.go /
// sharded.go), and every entry carrying an older tag turns into a miss —
// O(1) lazy invalidation, no scan.
//
// Exactness: σ is a pure function of the entity pair and the immutable
// per-epoch graph/embedding state, so a tag-valid entry is bit-identical
// to recomputing. The cache is opt-in (thetisd -cross-cache-mb, default
// off) and escape-hatched like DisableSigmaCache: a nil Engine.Cross is
// the disabled baseline the differential battery compares against.

const (
	// crossShards is the stripe count of the cache. Keys spread by a
	// multiplicative hash, so concurrent searches rarely contend.
	crossShards = 64

	// crossEntryBytes is the accounting cost of one cached pair: the ring
	// slot (key + tag + value + ref bit, padded) plus the index map entry.
	// Measured footprint is close; the point is a stable, conservative
	// bound, not byte-exact accounting.
	crossEntryBytes = 64

	// crossEpochBits is how many low bits of the index epoch fold into an
	// entry tag; the high bits carry the flush generation so a Flush (e.g.
	// a similarity swap on Refresh) invalidates even when the epoch itself
	// did not move. Epochs are per-mutation counters, so 40 bits outlast
	// any realistic process lifetime.
	crossEpochBits = 40
)

// crossEntry is one memoized σ pair in a shard's clock ring.
type crossEntry struct {
	key uint64 // query entity <<32 | corpus entity
	tag uint64 // generation<<crossEpochBits | epoch at Put time
	val float64
	ref bool // second-chance bit for clock eviction
}

type crossShard struct {
	mu   sync.Mutex
	idx  map[uint64]int32 // key -> ring position
	ring []crossEntry     // grows to cap, then clock-evicts
	hand int32
}

// CrossCache memoizes σ across queries under an epoch tag, bounded in
// memory by per-shard clock (second-chance) eviction. Safe for concurrent
// use; attach one to an Engine via Engine.Cross (or System.
// EnableCrossCache), and keep its epoch current with SetEpoch on every
// index mutation.
type CrossCache struct {
	epoch atomic.Uint64 // current index epoch (low crossEpochBits used)
	gen   atomic.Uint64 // flush generation (high bits of the tag)

	perShardCap int // max ring entries per shard, ≥ 1

	shards [crossShards]crossShard

	hits, misses, evictions atomic.Int64
}

// NewCrossCache builds a cache bounded to roughly maxBytes of entry
// footprint (≥ one entry per shard). The epoch starts at 0; callers seed
// it with SetEpoch before first use.
func NewCrossCache(maxBytes int64) *CrossCache {
	capTotal := maxBytes / crossEntryBytes
	per := int(capTotal / crossShards)
	if per < 1 {
		per = 1
	}
	c := &CrossCache{perShardCap: per}
	for i := range c.shards {
		c.shards[i].idx = make(map[uint64]int32)
	}
	return c
}

// SetEpoch installs the current index epoch. Entries written under a
// different epoch (or an older flush generation) miss from then on; they
// are reclaimed lazily by eviction or overwritten in place on refill.
func (c *CrossCache) SetEpoch(epoch uint64) { c.epoch.Store(epoch) }

// Epoch returns the epoch the cache currently validates entries against.
func (c *CrossCache) Epoch() uint64 { return c.epoch.Load() }

// Flush invalidates every entry regardless of epoch by bumping the flush
// generation — the hook for changes the epoch does not capture, such as
// swapping the similarity function on Refresh.
func (c *CrossCache) Flush() { c.gen.Add(1) }

// tagNow is the tag a valid entry must carry right now. The two loads are
// not atomic together; mutators hold the system write lock while bumping,
// so searches never observe a torn (gen, epoch) pair in practice, and a
// torn read merely turns valid entries into misses.
func (c *CrossCache) tagNow() uint64 {
	return c.gen.Load()<<crossEpochBits | c.epoch.Load()&(1<<crossEpochBits-1)
}

func crossKey(qe kg.EntityID, target uint32) uint64 {
	return uint64(qe)<<32 | uint64(target)
}

func (c *CrossCache) shard(key uint64) *crossShard {
	return &c.shards[(key*0x9E3779B97F4A7C15)>>58&(crossShards-1)]
}

// Get returns the memoized σ(qe, target) when a current-epoch entry
// exists. It does not touch the hit/miss counters — the scorer batches
// those locally and merges them via addCounts, like SigmaCache.
func (c *CrossCache) Get(qe kg.EntityID, target uint32) (float64, bool) {
	key := crossKey(qe, target)
	tag := c.tagNow()
	sh := c.shard(key)
	sh.mu.Lock()
	pos, ok := sh.idx[key]
	if !ok {
		sh.mu.Unlock()
		return 0, false
	}
	e := &sh.ring[pos]
	if e.tag != tag {
		sh.mu.Unlock()
		return 0, false
	}
	e.ref = true
	v := e.val
	sh.mu.Unlock()
	return v, true
}

// Put memoizes σ(qe, target) under the current epoch tag, evicting by
// clock sweep when the shard is at capacity. Stale-tagged duplicates are
// overwritten in place.
func (c *CrossCache) Put(qe kg.EntityID, target uint32, v float64) {
	key := crossKey(qe, target)
	tag := c.tagNow()
	sh := c.shard(key)
	sh.mu.Lock()
	if pos, ok := sh.idx[key]; ok {
		e := &sh.ring[pos]
		e.tag, e.val, e.ref = tag, v, true
		sh.mu.Unlock()
		return
	}
	if len(sh.ring) < c.perShardCap {
		sh.idx[key] = int32(len(sh.ring))
		sh.ring = append(sh.ring, crossEntry{key: key, tag: tag, val: v, ref: true})
		sh.mu.Unlock()
		return
	}
	// Clock sweep: clear ref bits until an unreferenced victim turns up.
	// Stale-tagged entries are preferred victims — they can never hit
	// again, so their ref bit is ignored.
	for {
		e := &sh.ring[sh.hand]
		if e.tag != tag || !e.ref {
			delete(sh.idx, e.key)
			sh.idx[key] = sh.hand
			*e = crossEntry{key: key, tag: tag, val: v, ref: true}
			sh.hand = (sh.hand + 1) % int32(len(sh.ring))
			c.evictions.Add(1)
			mCrossEvictions.Inc()
			sh.mu.Unlock()
			return
		}
		e.ref = false
		sh.hand = (sh.hand + 1) % int32(len(sh.ring))
	}
}

// addCounts merges externally batched hit/miss tallies (the scorer's
// per-worker counters) into the cache totals.
func (c *CrossCache) addCounts(hits, misses int64) {
	if hits != 0 {
		c.hits.Add(hits)
	}
	if misses != 0 {
		c.misses.Add(misses)
	}
}

// CrossCacheStats is a point-in-time snapshot of the cache.
type CrossCacheStats struct {
	// Hits and Misses count σ lookups that consulted the cross cache:
	// a hit was served from a current-epoch entry, a miss was computed
	// (and filled). Lookups already answered by the query/batch-scoped
	// SigmaCache never reach the cross cache and count in neither.
	Hits, Misses int64
	// Evictions counts entries displaced by the clock sweep.
	Evictions int64
	// Entries is the number of resident pairs (any tag, including stale
	// ones awaiting lazy reclamation).
	Entries int64
	// MemoryBytes is Entries × the fixed per-entry accounting cost.
	MemoryBytes int64
	// CapacityBytes is the configured bound.
	CapacityBytes int64
	// Epoch is the epoch entries are currently validated against.
	Epoch uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CrossCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the cache (locks each shard briefly; for introspection,
// not the hot path).
func (c *CrossCache) Stats() CrossCacheStats {
	st := CrossCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		CapacityBytes: int64(c.perShardCap) * crossShards * crossEntryBytes,
		Epoch:         c.epoch.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Entries += int64(len(sh.ring))
		sh.mu.Unlock()
	}
	st.MemoryBytes = st.Entries * crossEntryBytes
	return st
}

// MemoryBytes returns the current entry footprint estimate.
func (c *CrossCache) MemoryBytes() int64 {
	var entries int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		entries += int64(len(sh.ring))
		sh.mu.Unlock()
	}
	return entries * crossEntryBytes
}
