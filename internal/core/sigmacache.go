package core

import (
	"math"
	"sync"
	"sync/atomic"

	"thetis/internal/kg"
	"thetis/internal/lake"
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
	// (distinct query entities × σ key space × 8 bytes). Above
	// it the cache switches to sharded maps, trading the lock-free dense
	// lookup for memory proportional to the pairs actually touched.
	maxSigmaDenseBytes = 64 << 20

	// sigmaShards is the shard count of the map-backed cache. Shards are
	// picked by a multiplicative hash of the (slot, row) cell, so workers
	// scoring different tables rarely contend on one mutex.
	sigmaShards = 64
)

// SigmaCache memoizes a Similarity over the cross product of one query's
// distinct entities and the σ's key space. It is created per query
// (query-scoped), shared by all scoring workers of that query, and
// discarded with it — no invalidation, since σ is deterministic and
// immutable for the life of a search.
//
// Key space: a target entity's row is its key. For most σ the key is the
// corpus entity ID itself, so the space is the corpus entity ID space. A
// keyedSimilarity names its own, smaller space: TypeJaccard keys a target
// by its interned type set, so a type-σ search keeps slots × (type sets + 1)
// cells whatever the size of the KG. A keyed row is shared by every entity
// of the set, so it holds Equation 4's value for non-identical entities, and
// σ(e, e) = 1 is laid over the cell read, never stored (identity).
//
// Representation: each distinct query entity owns a slot; small key spaces
// get one dense key-major array of float64 bits — cell (slot, key) lives at
// key·slots + slot, so the σ of every query entity against one target are
// adjacent, which is how the scorer reads them (one row per column entity,
// scorer.readSigmas, or per column key, scorer.keyRow) — updated with lock-free atomics (racing workers write
// the same bits, so the last write is as good as the first). An engine
// search draws that array from a pooled slab (sigmaSlab) instead of
// allocating it, and a row is valid only under the search's generation
// stamp: the first reader of a stale row resets it (row). The scorer's
// misses on a dense row are filled a row at a time (fillRow); over an
// EmbeddingCosine that is one four-lane cosine kernel per row instead of a
// Score call per cell. When the dense footprint would exceed 64 MiB, slots
// share 64 mutex-guarded map shards keyed by (slot, row) instead.
//
// A SigmaCache is safe for concurrent use.
type SigmaCache struct {
	sim      Similarity
	entities []kg.EntityID // distinct query entities, by slot
	n        int           // rows of the dense array: the key space; 0 in sharded mode

	dense  []uint64 // n × slots cells, key-major (dense mode); nil in sharded mode
	stamps []uint32 // stamps[key] == gen: dense row key belongs to this cache
	gen    uint32
	keyed  keyedSimilarity // the σ as a keyedSimilarity; nil for an un-keyed σ
	// keyOf is keyed's key, as the function value lake.KeyGroups takes, and
	// self[slot] the cell of the slot's query entity in its own key's row:
	// the value a σ pass reads for the entity's own cells before
	// scorer.identity lifts them to 1. Both nil for an un-keyed σ.
	keyOf func(kg.EntityID) uint32
	self  []float64
	// shards are the sharded mode's maps, nil in dense mode: newSigmaCache
	// picks the mode by the dense footprint alone, and a dense cache over
	// an empty key space (n = 0) has no cells at all.
	shards []sigmaShard
	cosine cosineRow // dense mode over an *EmbeddingCosine; zero otherwise

	hits, misses atomic.Int64
}

type sigmaShard struct {
	mu sync.Mutex
	m  map[uint64]float64
}

// sigmaSlabs pools the dense storage of engine searches' σ caches, so a
// warm search allocates no σ storage. A slab goes back only after every
// worker of its search has returned, so two live searches never share one.
var sigmaSlabs sync.Pool

// takeSigmaSlab returns a pooled slab, or a new empty one.
func takeSigmaSlab() *sigmaSlab {
	if s, ok := sigmaSlabs.Get().(*sigmaSlab); ok {
		return s
	}
	return new(sigmaSlab)
}

// sigmaSlab is the dense storage of one search's SigmaCache at a time.
// Rows are generation-stamped: row key holds the current search's σ only
// while stamps[key] == gen; any other stamp marks values of an earlier
// search, possibly in another slot layout or key space, which the row's
// first reader resets (SigmaCache.row). Nothing is cleared between
// searches; each advances gen.
//
// Memory: 8 B per cell at the largest slots × keys the slab has served,
// plus 4 B per key of the largest key space.
type sigmaSlab struct {
	gen    uint32
	cells  []uint64
	stamps []uint32
	// holders marks the tables that hold a query entity of the slab's
	// search, under a keyed σ (searchCandidates).
	holders tableMarks
}

// tableMarks marks a set of table IDs, generation-stamped like the slab's
// rows: table tid is marked while stamps[tid] == gen, so a new set costs
// its own tables, not a clear of the old one.
//
// Memory: 4 B per table slot of the largest lake marked.
type tableMarks struct {
	gen    uint32
	stamps []uint32
}

// mark replaces the marked set with the tables of l that mention one of
// entities, read from the lake's posting lists. New stamps are 0, which is
// never a live generation, and a wrapped gen clears them all, as in use.
func (m *tableMarks) mark(l *lake.Lake, entities []kg.EntityID) {
	if n := l.NumSlots(); n > len(m.stamps) {
		m.stamps = append(m.stamps, make([]uint32, n-len(m.stamps))...)
	}
	m.gen++
	if m.gen == 0 {
		clear(m.stamps)
		m.gen = 1
	}
	for _, e := range entities {
		for _, tid := range l.TablesWith(e) {
			m.stamps[tid] = m.gen
		}
	}
}

// has reports whether table tid is marked.
func (m *tableMarks) has(tid lake.TableID) bool {
	return int(tid) < len(m.stamps) && m.stamps[tid] == m.gen
}

// use readies the slab for a search of slots query entities over n keys:
// it grows the arrays to cover them and advances gen. New stamps are 0,
// which is never a live generation; when gen wraps, every stamp is cleared
// so that none written 2³² searches ago can match again.
func (s *sigmaSlab) use(slots, n int) {
	if need := slots * n; need > len(s.cells) {
		s.cells = make([]uint64, need)
	}
	if n > len(s.stamps) {
		s.stamps = append(s.stamps, make([]uint32, n-len(s.stamps))...)
	}
	s.gen++
	if s.gen == 0 {
		clear(s.stamps)
		s.gen = 1
	}
}

// NewSigmaCache builds a cache for the distinct entities of q over a
// corpus ID space of numEntities (typically Graph.NumEntities), evaluating
// sim on each first lookup. A σ with its own key space (TypeJaccard) is
// cached over that space instead, and numEntities goes unused. Engine wires
// one up per search automatically; construct one directly only to
// introspect hit rates or to memoize a σ outside the engine.
func NewSigmaCache(q Query, sim Similarity, numEntities int) *SigmaCache {
	return newSigmaCache(q, sim, numEntities, new(sigmaSlab))
}

// newSigmaCache is NewSigmaCache with the dense cells drawn from slab, which
// the caller must not hand to another cache while this one is in use.
func newSigmaCache(q Query, sim Similarity, numEntities int, slab *sigmaSlab) *SigmaCache {
	distinct := q.DistinctEntities()
	keyed, _ := sim.(keyedSimilarity)
	if keyed != nil {
		numEntities = keyed.numKeys()
	}
	c := &SigmaCache{
		sim:      sim,
		entities: distinct,
		keyed:    keyed,
	}
	if keyed != nil {
		c.keyOf = keyed.key
		c.self = make([]float64, len(distinct))
		for slot, e := range distinct {
			c.self[slot] = keyed.scoreKey(e, keyed.key(e))
		}
	}
	if int64(len(distinct))*int64(numEntities)*8 <= maxSigmaDenseBytes {
		slab.use(len(distinct), numEntities)
		c.n = numEntities
		c.dense = slab.cells[:len(distinct)*numEntities]
		c.stamps = slab.stamps[:numEntities]
		c.gen = slab.gen
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
func (c *SigmaCache) Dense() bool { return c.shards == nil }

// shard maps a (slot, row) cell to its map shard by a multiplicative hash
// (Fibonacci hashing), spreading rows that arrive in dense ID order across
// shards.
func (c *SigmaCache) shard(key uint64) *sigmaShard {
	return &c.shards[(key*0x9E3779B97F4A7C15)>>58&(sigmaShards-1)]
}

// rowKey returns the row that holds target's σ: its key under a keyed σ,
// which covers every entity, and otherwise the entity itself. dense reports
// whether the row is in the dense array: false in sharded mode, and for an
// entity interned after an un-keyed cache was sized, whose cells are not
// stored at all.
func (c *SigmaCache) rowKey(target uint32) (key uint32, dense bool) {
	if c.keyed != nil {
		key = c.keyed.key(kgEntity(target))
	} else {
		key = target
	}
	return key, int(key) < c.n
}

// row returns the dense cells of row key, one per slot; key must be below
// c.n. Every dense access goes through it. A row whose stamp is not the
// cache's generation still holds an earlier search's values, so its first
// reader stores sigmaUnset into every cell and only then publishes the
// stamp: a reader that sees the stamp sees the reset. Racing first readers
// may both reset the row; a reset writes only sigmaUnset, so a cell holds
// either that or this search's σ, and a late reset at worst drops a value
// to be computed again. No CAS is needed.
func (c *SigmaCache) row(key uint32) []uint64 {
	slots := len(c.entities)
	cells := c.dense[int(key)*slots:][:slots]
	if stamp := &c.stamps[key]; atomic.LoadUint32(stamp) != c.gen {
		for i := range cells {
			atomic.StoreUint64(&cells[i], sigmaUnset)
		}
		atomic.StoreUint32(stamp, c.gen)
	}
	return cells
}

// get returns the memoized cell (slot, key) of row key, if present: without
// identity, and without touching the hit/miss counters — the scorer
// batches those locally and merges them via addCounts to avoid
// cross-worker contention.
func (c *SigmaCache) get(slot int, key uint32) (float64, bool) {
	if int(key) < c.n {
		bits := atomic.LoadUint64(&c.row(key)[slot])
		return math.Float64frombits(bits), bits != sigmaUnset
	}
	if c.shards == nil {
		return 0, false
	}
	k := uint64(slot)<<32 | uint64(key)
	sh := c.shard(k)
	sh.mu.Lock()
	v, ok := sh.m[k]
	sh.mu.Unlock()
	return v, ok
}

// put computes cell (slot, key) for target, whose row is key, on a miss,
// memoizes it where the cache has room for it, and returns it. Racing puts
// store identical bits (σ is deterministic), so no compare-and-swap is
// needed.
func (c *SigmaCache) put(slot int, key, target uint32) float64 {
	v := c.cell(slot, key, target)
	if int(key) < c.n {
		atomic.StoreUint64(&c.row(key)[slot], math.Float64bits(v))
	} else if c.shards != nil {
		k := uint64(slot)<<32 | uint64(key)
		sh := c.shard(k)
		sh.mu.Lock()
		sh.m[k] = v
		sh.mu.Unlock()
	}
	return v
}

// lookup returns the memoized σ for (slot, target), if present.
func (c *SigmaCache) lookup(slot int, target uint32) (float64, bool) {
	key, _ := c.rowKey(target)
	v, ok := c.get(slot, key)
	if !ok {
		return 0, false
	}
	return c.identity(slot, target, v), true
}

// fill computes σ for (slot, target) on a lookup miss, memoizes it, and
// returns it.
func (c *SigmaCache) fill(slot int, target uint32) float64 {
	key, _ := c.rowKey(target)
	return c.identity(slot, target, c.put(slot, key, target))
}

// cell is the value cell (slot, key) holds for target, whose row is key:
// scoreKey under a keyed σ, which is Score unless the query entity is
// target itself, and Score otherwise.
func (c *SigmaCache) cell(slot int, key, target uint32) float64 {
	if c.keyed != nil {
		return c.keyed.scoreKey(c.entities[slot], key)
	}
	return c.sim.Score(c.entities[slot], kgEntity(target))
}

// identity returns v, a cell of target's row read for slot, as σ: 1 when a
// keyed cache's query entity is target itself, since a keyed row is shared
// by every entity with target's key and cannot hold σ(e, e).
func (c *SigmaCache) identity(slot int, target uint32, v float64) float64 {
	if c.keyed != nil && c.entities[slot] == kgEntity(target) {
		return 1
	}
	return v
}

// fillRow computes the cells of row key that out, one value per slot, marks
// with sigmaUnset's bits, stores them, and leaves them in out; the other
// values of out are left as they are. key is target's row (rowKey). Over an
// EmbeddingCosine that is the row kernel (cosineRow.fill); any other σ is
// called once per marked cell. Under a keyed σ, out then holds the row's
// cells, without identity.
func (c *SigmaCache) fillRow(key, target uint32, out []float64) {
	cells := c.row(key)
	if c.cosine.ec != nil {
		c.cosine.fill(kgEntity(target), c.entities, out, cells)
		return
	}
	for di := range out {
		if math.Float64bits(out[di]) == sigmaUnset {
			out[di] = c.cell(di, key, target)
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
	c.misses.Add(1)
	return c.fill(slot, uint32(target))
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
	// table scored, or under a σ with its own key space one per (distinct
	// query entity, column key). Under concurrent workers Misses can slightly exceed
	// the number of distinct pairs: two workers may race to fill the same
	// cell, each counting one miss while storing identical values.
	Hits, Misses int64
	// Entries is the number of memoized cells currently stored: (query
	// entity, corpus entity) pairs, or (query entity, key) pairs under a σ
	// with its own key space (TypeJaccard: one per type set).
	Entries int64
	// Slots is the number of distinct query entities covered.
	Slots int
	// Dense reports the representation (true = lock-free dense array,
	// false = sharded maps).
	Dense bool
	// MemoryBytes is the cache memory in use: in dense mode the bytes
	// the dense view spans (slots × keys × 8, where the keys are the
	// corpus entities or the σ's own key space, drawn from a pooled slab
	// on engine searches rather than allocated per search), in sharded
	// mode the entry footprint.
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
// it for introspection, not per lookup; a dense row counts only while it
// carries the cache's generation stamp.
func (c *SigmaCache) Stats() SigmaCacheStats {
	st := SigmaCacheStats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
		Slots:  len(c.entities),
		Dense:  c.shards == nil,
	}
	if c.shards == nil {
		slots := len(c.entities)
		for key := range c.stamps {
			if atomic.LoadUint32(&c.stamps[key]) != c.gen {
				continue
			}
			row := c.dense[key*slots:][:slots]
			for i := range row {
				if atomic.LoadUint64(&row[i]) != sigmaUnset {
					st.Entries++
				}
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

// MemoryBytes returns the cache memory in use without scanning (dense mode
// spans its full view from the start; sharded mode grows with use, so this
// reports the current entry estimate).
func (c *SigmaCache) MemoryBytes() int64 {
	if c.shards == nil {
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
