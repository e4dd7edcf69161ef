package core

import (
	"math"
	"sync"
	"sync/atomic"

	"thetis/internal/kg"
)

// Query-scoped σ memoization. One SearchContext call evaluates σ(q_e, e)
// for every (query entity, cell entity) pair reached by its candidate
// tables; corpus entities are heavily skewed, so the same pair recurs
// thousands of times across candidates. A SigmaCache scores each distinct
// pair exactly once per query and shares the result across all scoring
// workers — the memoization layer the paper's runtime analysis (Section
// 7.3, "dominated by pairwise entity similarity") motivates.

const (
	// sigmaUnset marks an empty dense cache cell. The bit pattern is a
	// quiet NaN that no Similarity returns; if one ever did, that pair
	// would merely be recomputed on every lookup, never served wrong.
	sigmaUnset = ^uint64(0)

	// maxSigmaDenseBytes caps the dense cache footprint per query
	// (distinct query entities × corpus entity space × 8 bytes). Above
	// it the cache switches to sharded maps, trading the lock-free dense
	// lookup for memory proportional to the pairs actually touched.
	maxSigmaDenseBytes = 64 << 20

	// sigmaShards is the shard count of the map-backed cache. Shards are
	// picked by a multiplicative hash of the corpus entity ID, so workers
	// scoring different tables rarely contend on one mutex.
	sigmaShards = 64
)

// SigmaCache memoizes a Similarity over the cross product of one query's
// distinct entities and the corpus entity ID space. It is created per
// query (query-scoped), shared by all scoring workers of that query, and
// discarded with it — no invalidation, since σ is deterministic and
// immutable for the life of a search.
//
// Representation: each distinct query entity owns a slot; small corpora
// get one dense entity-major array of float64 bits — cell (slot, e) lives
// at e·slots + slot, so the σ of every query entity against one corpus
// entity are adjacent, which is how the scorer reads them (one pass per
// column entity, scorer.readSigmas) — updated with lock-free atomics
// (racing workers write the same bits, so the last write is as good as the
// first). The scorer's misses on a dense row are filled a row at a time
// (fillRow); over an EmbeddingCosine that is one four-lane cosine kernel per
// row instead of a Score call per cell. When the dense footprint would exceed
// 64 MiB, slots share 64 mutex-guarded map shards instead.
//
// A SigmaCache is safe for concurrent use.
type SigmaCache struct {
	sim      Similarity
	entities []kg.EntityID // distinct query entities, by slot
	n        int           // corpus entity ID space

	dense  []uint64 // n × slots cells, entity-major (dense mode); nil in sharded mode
	shards []sigmaShard
	cosine cosineRow // dense mode over an *EmbeddingCosine; zero otherwise

	hits, misses atomic.Int64
}

type sigmaShard struct {
	mu sync.Mutex
	m  map[uint64]float64
}

// NewSigmaCache builds a cache for the distinct entities of q over a
// corpus ID space of numEntities (typically Graph.NumEntities), evaluating
// sim on each first lookup. Engine wires one up per search automatically;
// construct one directly only to introspect hit rates or to memoize a σ
// outside the engine.
func NewSigmaCache(q Query, sim Similarity, numEntities int) *SigmaCache {
	distinct := q.DistinctEntities()
	c := &SigmaCache{
		sim:      sim,
		entities: distinct,
		n:        numEntities,
	}
	if int64(len(distinct))*int64(numEntities)*8 <= maxSigmaDenseBytes {
		c.dense = make([]uint64, len(distinct)*numEntities)
		for i := range c.dense {
			c.dense[i] = sigmaUnset
		}
		if ec, ok := sim.(*EmbeddingCosine); ok {
			c.cosine = newCosineRow(ec, distinct)
		}
	} else {
		c.shards = make([]sigmaShard, sigmaShards)
		for i := range c.shards {
			c.shards[i].m = make(map[uint64]float64)
		}
	}
	return c
}

// NumSlots returns the number of distinct query entities the cache covers.
func (c *SigmaCache) NumSlots() int { return len(c.entities) }

// Dense reports whether the cache runs in dense (lock-free array) mode, as
// opposed to sharded-map mode.
func (c *SigmaCache) Dense() bool { return c.dense != nil }

// shard maps a (slot, entity) key to its map shard by a multiplicative
// hash of the entity ID (Fibonacci hashing), spreading corpus entities
// that arrive in dense ID order across shards.
func (c *SigmaCache) shard(key uint64) *sigmaShard {
	return &c.shards[(key*0x9E3779B97F4A7C15)>>58&(sigmaShards-1)]
}

// row returns the dense cells of corpus entity target, one per slot;
// target must be below c.n.
func (c *SigmaCache) row(target uint32) []uint64 {
	slots := len(c.entities)
	return c.dense[int(target)*slots:][:slots]
}

// lookup returns the memoized σ for (slot, target), if present. It does
// not touch the hit/miss counters — the scorer batches those locally and
// merges them via addCounts to avoid cross-worker contention.
func (c *SigmaCache) lookup(slot int, target uint32) (float64, bool) {
	if c.dense != nil {
		if int(target) >= c.n {
			return 0, false
		}
		bits := atomic.LoadUint64(&c.row(target)[slot])
		if bits == sigmaUnset {
			return 0, false
		}
		return math.Float64frombits(bits), true
	}
	key := uint64(slot)<<32 | uint64(target)
	sh := c.shard(key)
	sh.mu.Lock()
	v, ok := sh.m[key]
	sh.mu.Unlock()
	return v, ok
}

// store memoizes σ for (slot, target). Racing stores write identical bits
// (σ is deterministic), so no compare-and-swap is needed.
func (c *SigmaCache) store(slot int, target uint32, v float64) {
	if c.dense != nil {
		if int(target) >= c.n {
			return
		}
		atomic.StoreUint64(&c.row(target)[slot], math.Float64bits(v))
		return
	}
	key := uint64(slot)<<32 | uint64(target)
	sh := c.shard(key)
	sh.mu.Lock()
	sh.m[key] = v
	sh.mu.Unlock()
}

// fillRow computes the cells of target's dense row that out, one value per
// slot, marks with sigmaUnset's bits, stores them, and leaves their σ in out;
// the other values of out are left as they are. target must be below c.n.
// Over an EmbeddingCosine that is the row kernel (cosineRow.fill); any other
// σ is called once per marked cell.
func (c *SigmaCache) fillRow(target uint32, out []float64) {
	cells := c.row(target)
	if c.cosine.ec != nil {
		c.cosine.fill(kgEntity(target), c.entities, out, cells)
		return
	}
	for di := range out {
		if math.Float64bits(out[di]) == sigmaUnset {
			out[di] = c.sim.Score(c.entities[di], kgEntity(target))
			atomic.StoreUint64(&cells[di], math.Float64bits(out[di]))
		}
	}
}

// Sigma returns σ(query entity of slot, target), computing and memoizing
// it on first use. Unlike the engine-internal path it counts every hit and
// miss on the cache's shared counters, which Stats exposes — the
// introspection entry point shown in the package example.
func (c *SigmaCache) Sigma(slot int, target kg.EntityID) float64 {
	if v, ok := c.lookup(slot, uint32(target)); ok {
		c.hits.Add(1)
		return v
	}
	v := c.sim.Score(c.entities[slot], target)
	c.store(slot, uint32(target), v)
	c.misses.Add(1)
	return v
}

// addCounts merges externally batched hit/miss tallies (the engine's
// per-worker counters) into the cache's totals.
func (c *SigmaCache) addCounts(hits, misses int64) {
	if hits != 0 {
		c.hits.Add(hits)
	}
	if misses != 0 {
		c.misses.Add(misses)
	}
}

// SigmaCacheStats is a point-in-time snapshot of a cache's effectiveness.
type SigmaCacheStats struct {
	// Hits and Misses count lookups served from and filled into the
	// cache: Sigma calls, plus what the engine's scorers batch in — one
	// lookup per (distinct query entity, distinct column entity) per
	// table scored. Under concurrent workers Misses can slightly exceed
	// the number of distinct pairs: two workers may race to fill the same
	// cell, each counting one miss while storing identical values.
	Hits, Misses int64
	// Entries is the number of memoized (query entity, corpus entity)
	// pairs currently stored.
	Entries int64
	// Slots is the number of distinct query entities covered.
	Slots int
	// Dense reports the representation (true = lock-free dense array,
	// false = sharded maps).
	Dense bool
	// MemoryBytes is the reserved cache memory: the full array footprint
	// in dense mode, the entry footprint in sharded mode.
	MemoryBytes int64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s SigmaCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the cache. Entry counting scans the dense array, so call
// it for introspection, not per lookup.
func (c *SigmaCache) Stats() SigmaCacheStats {
	st := SigmaCacheStats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
		Slots:  len(c.entities),
		Dense:  c.dense != nil,
	}
	if c.dense != nil {
		for i := range c.dense {
			if atomic.LoadUint64(&c.dense[i]) != sigmaUnset {
				st.Entries++
			}
		}
		st.MemoryBytes = int64(len(c.dense)) * 8
	} else {
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.Lock()
			st.Entries += int64(len(sh.m))
			sh.mu.Unlock()
		}
		st.MemoryBytes = st.Entries * 16
	}
	return st
}

// MemoryBytes returns the reserved cache memory without scanning (dense
// mode reserves its full footprint up front; sharded mode grows with use,
// so this reports the current entry estimate).
func (c *SigmaCache) MemoryBytes() int64 {
	if c.dense != nil {
		return int64(len(c.dense)) * 8
	}
	var entries int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		entries += int64(len(sh.m))
		sh.mu.Unlock()
	}
	return entries * 16
}
