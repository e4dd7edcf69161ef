package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"thetis/internal/embedding"
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/lsh"
	"thetis/internal/obs"
	"thetis/internal/table"
)

// Prefilter metrics (see docs/OBSERVABILITY.md), cached as package handles.
var (
	mPrefilterQueries = obs.PrefilterQueriesTotal()
	mPrefilterProbes  = obs.PrefilterProbesTotal()
	mPrefilterVotes   = obs.PrefilterVotesTotal()
	mPrefilterCands   = obs.PrefilterCandidates()
	mPrefilterRed     = obs.PrefilterReduction()
)

// LSEIConfig parameterizes a Locality-Sensitive Entity Index (Section 6).
// The paper denotes configurations as (Vectors, BandSize) pairs, e.g.
// (32, 8), (128, 8), and the recommended (30, 10).
type LSEIConfig struct {
	// Vectors is the number of MinHash permutations (type index) or random
	// projections (embedding index).
	Vectors int
	// BandSize is the number of signature positions per band.
	BandSize int
	// FrequentTypeThreshold drops types occurring in more than this
	// fraction of tables before shingling (types index only). The paper
	// uses 0.5: "a type that describes more than half of the entities
	// cannot be really informative". Zero means the default 0.5.
	FrequentTypeThreshold float64
	// ColumnAggregation indexes one aggregated signature per table column
	// instead of one per entity (the space optimization of Section 6.2).
	ColumnAggregation bool
	// Seed fixes the random permutations/projections.
	Seed int64
}

// DefaultLSEIConfig returns the paper's recommended (30, 10) configuration.
func DefaultLSEIConfig() LSEIConfig {
	return LSEIConfig{Vectors: 30, BandSize: 10, FrequentTypeThreshold: 0.5, Seed: 1}
}

// maxVectors bounds the accepted signature length — far above the paper's
// largest configuration (128) but low enough to reject corrupt or absurd
// parameters before they drive huge allocations.
const maxVectors = 1 << 20

// Validate rejects configurations that would make index construction panic
// or behave nonsensically: a band size outside [1, Vectors] (the lsh.NewIndex
// panic), non-positive vector counts, or a frequent-type threshold outside
// [0, 1]. Callers deriving a config from flags or snapshot headers should
// validate before building.
func (cfg LSEIConfig) Validate() error {
	if cfg.Vectors < 1 || cfg.Vectors > maxVectors {
		return fmt.Errorf("core: LSEI vectors must be in [1, %d], got %d", maxVectors, cfg.Vectors)
	}
	if cfg.BandSize < 1 || cfg.BandSize > cfg.Vectors {
		return fmt.Errorf("core: LSEI band size must be in [1, vectors=%d], got %d", cfg.Vectors, cfg.BandSize)
	}
	if math.IsNaN(cfg.FrequentTypeThreshold) || cfg.FrequentTypeThreshold < 0 || cfg.FrequentTypeThreshold > 1 {
		return fmt.Errorf("core: frequent-type threshold must be in [0, 1], got %v", cfg.FrequentTypeThreshold)
	}
	return nil
}

// LSEI prefilters the table search space: querying it with the entities of
// a query returns the subset of tables worth scoring, cutting runtime by up
// to 17× in the paper without reducing NDCG.
type LSEI struct {
	cfg   LSEIConfig
	lake  *lake.Lake
	index *lsh.Index

	// Entity-level mode: items inserted into the LSH index are entity IDs;
	// tables are reached through the lake's posting lists.
	// Column-aggregation mode: items are dense column UIDs mapped to their
	// table by colTable; RemoveTable tombstones a UID's slot to -1 (UIDs are
	// never reused).
	columnMode bool
	colTable   []lake.TableID
	// colOf maps each column UID to its column number within its table —
	// what RemoveTable and filter resigning need to recompute the UID's
	// stored signature. Maintained alongside colTable on every insert; not
	// serialized (ensureColOf rebuilds it deterministically for
	// snapshot-loaded indexes).
	colOf []int32
	// indexed tracks which entities have signatures (entity mode), so
	// incremental AddTable only inserts new ones and RemoveTable knows what
	// to drop when an entity's last table disappears.
	indexed map[kg.EntityID]bool

	// Exactly one of the signature sources is set.
	minHash    *lsh.MinHasher
	typeFilter map[kg.TypeID]bool // frequent types to drop
	typeSets   *TypeJaccard
	// setSigs holds, in type/entity mode, the signature of each interned
	// type set (TypeJaccard.SetID) met so far under the current filter (nil:
	// not met; empty: no type passes the filter). Only builds, loads and
	// writers holding the system's write lock fill it; probes read it.
	setSigs [][]uint32

	hyper *lsh.HyperplaneHasher
	cos   *EmbeddingCosine

	// spaces pools *voteSpace workspaces, one per Candidates call in
	// flight, so a warm probe allocates nothing per colliding item or table.
	spaces sync.Pool
}

// BuildTypeLSEI indexes every distinct lake entity (or every table column)
// by the MinHash signature of its type-pair shingles.
func BuildTypeLSEI(l *lake.Lake, tj *TypeJaccard, cfg LSEIConfig) *LSEI {
	return BuildTypeLSEIFiltered(l, tj, cfg, nil)
}

// BuildTypeLSEIFiltered is BuildTypeLSEI with an injected frequent-type
// filter instead of one computed from l alone. thetis.System passes the
// filter its TypeFilterState keeps current, and a remote shard daemon the
// one its coordinator computed over the whole corpus, so every shard's
// index drops exactly the types a global index would drop — signatures,
// and therefore LSH collisions, then match the unsharded system's bit for
// bit. A nil filter computes it from l (the single-lake behavior).
func BuildTypeLSEIFiltered(l *lake.Lake, tj *TypeJaccard, cfg LSEIConfig, filter map[kg.TypeID]bool) *LSEI {
	if cfg.FrequentTypeThreshold == 0 {
		cfg.FrequentTypeThreshold = 0.5
	}
	if filter == nil {
		filter = FrequentTypesOver(l, tj, cfg.FrequentTypeThreshold)
	}
	x := &LSEI{
		cfg:        cfg,
		lake:       l,
		index:      lsh.NewIndex(cfg.Vectors, cfg.BandSize),
		columnMode: cfg.ColumnAggregation,
		minHash:    lsh.NewMinHasher(cfg.Vectors, cfg.Seed),
		typeSets:   tj,
		typeFilter: filter,
	}
	if x.columnMode {
		x.buildTypeColumns()
	} else {
		x.indexed = make(map[kg.EntityID]bool)
		x.setSigs = make([][]uint32, tj.NumTypeSets())
		for _, e := range l.DistinctEntities() {
			x.insertEntity(e)
		}
	}
	return x
}

// BuildEmbeddingLSEI indexes every distinct lake entity (or every table
// column) by the hyperplane signature of its embedding. Entities without an
// embedding are skipped; their tables remain reachable through co-occurring
// entities.
func BuildEmbeddingLSEI(l *lake.Lake, ec *EmbeddingCosine, dim int, cfg LSEIConfig) *LSEI {
	x := &LSEI{
		cfg:        cfg,
		lake:       l,
		index:      lsh.NewIndex(cfg.Vectors, cfg.BandSize),
		columnMode: cfg.ColumnAggregation,
		hyper:      lsh.NewHyperplaneHasher(cfg.Vectors, dim, cfg.Seed),
		cos:        ec,
	}
	if x.columnMode {
		x.buildEmbeddingColumns()
	} else {
		x.indexed = make(map[kg.EntityID]bool)
		for _, e := range l.DistinctEntities() {
			x.insertEntity(e)
		}
	}
	return x
}

// insertEntity indexes one entity's signature (entity mode). Entities with
// no indexable representation are remembered but not inserted.
func (x *LSEI) insertEntity(e kg.EntityID) {
	if x.indexed[e] {
		return
	}
	x.indexed[e] = true
	if x.minHash != nil {
		if id := x.typeSets.SetID(e); id >= 0 {
			if sig := x.setSignature(id, true); len(sig) > 0 {
				x.index.Insert(uint32(e), sig)
			}
		}
		return
	}
	if v := x.cos.Vector(e); v != nil {
		x.index.Insert(uint32(e), x.hyper.Signature(v))
	}
}

// AddTable incrementally indexes a table ingested after the LSEI was
// built, implementing the semantic-data-lake principle that new datasets
// are added effortlessly. In entity mode, only entities unseen so far get
// new signatures (known entities already reach the table through the
// lake's posting lists); in column-aggregation mode, the table's columns
// are appended. Signatures use the current frequent-type filter — callers
// maintaining exact rebuild equivalence update the shared filter first
// (TypeFilterState resigns affected items), batch callers keep the built
// filter as an approximation. Not safe to call concurrently with
// Candidates.
func (x *LSEI) AddTable(tid lake.TableID) {
	t := x.lake.Table(tid)
	if t == nil {
		return
	}
	if !x.columnMode {
		// insertEntity skips an entity met before, in this table or another:
		// the cells are walked without a per-table set.
		for _, r := range t.Rows {
			for _, c := range r {
				if e, ok := c.EntityID(); ok {
					x.insertEntity(e)
				}
			}
		}
		return
	}
	x.ensureColOf()
	for j := 0; j < t.NumColumns(); j++ {
		ents := t.ColumnEntities(j)
		if len(ents) == 0 {
			continue
		}
		var sig []uint32
		if x.minHash != nil {
			sig = x.minHash.Signature(x.typeShingles(ents))
		} else {
			sig = x.groupSignature(ents)
			if sig == nil {
				continue
			}
		}
		x.index.Insert(uint32(len(x.colTable)), sig)
		x.colTable = append(x.colTable, tid)
		x.colOf = append(x.colOf, int32(j))
	}
}

// RemoveTable unindexes a table that was just removed from the lake. The
// caller passes the detached *table.Table (the lake slot is already nil).
// In entity mode, entities whose last table disappeared are dropped from
// the index — under the signature they were inserted with (their type
// set's, or their embedding's recomputed) — bucket by bucket. In
// column-aggregation mode the table's column UIDs are removed and their
// colTable slots tombstoned to -1. Must be called before any filter update
// for this removal (signatures are recomputed under the filter they were
// inserted with). Not safe to call concurrently with Candidates.
func (x *LSEI) RemoveTable(tid lake.TableID, t *table.Table) {
	if t == nil {
		return
	}
	if !x.columnMode {
		// An entity met again in the table is no longer indexed: the cells
		// are walked without a per-table set.
		for _, r := range t.Rows {
			for _, c := range r {
				e, ok := c.EntityID()
				if !ok || x.lake.EntityFrequency(e) != 0 || !x.indexed[e] {
					continue
				}
				if sig := x.entitySignature(e); sig != nil {
					x.index.Remove(uint32(e), sig)
				}
				delete(x.indexed, e)
			}
		}
		return
	}
	x.ensureColOf()
	for uid, owner := range x.colTable {
		if owner != tid {
			continue
		}
		ents := t.ColumnEntities(int(x.colOf[uid]))
		var sig []uint32
		if x.minHash != nil {
			sig = x.minHash.Signature(x.typeShingles(ents))
		} else {
			sig = x.groupSignature(ents)
		}
		if sig != nil {
			x.index.Remove(uint32(uid), sig)
		}
		x.colTable[uid] = -1
		x.colOf[uid] = -1
	}
}

// columnIndexed reports whether column j of t gets a signature at build
// time — the predicate behind ensureColOf's deterministic replay of the
// build walk.
func (x *LSEI) columnIndexed(t *table.Table, j int) bool {
	ents := t.ColumnEntities(j)
	if len(ents) == 0 {
		return false
	}
	if x.minHash != nil {
		return true
	}
	for _, e := range ents {
		if x.cos.Vector(e) != nil {
			return true
		}
	}
	return false
}

// ensureColOf reconstructs colOf for a snapshot-loaded column-mode index
// (the snapshot format stores colTable only). UIDs were assigned by
// walking tables in ID order and columns in position order, skipping
// columns that produce no signature, so pairing each table's UIDs with its
// indexable columns in order recovers the mapping exactly.
func (x *LSEI) ensureColOf() {
	if !x.columnMode || len(x.colOf) == len(x.colTable) {
		return
	}
	x.colOf = make([]int32, len(x.colTable))
	next := make(map[lake.TableID]int)
	for uid, tid := range x.colTable {
		if tid < 0 {
			x.colOf[uid] = -1
			continue
		}
		t := x.lake.Table(tid)
		j := next[tid]
		for t != nil && j < t.NumColumns() && !x.columnIndexed(t, j) {
			j++
		}
		x.colOf[uid] = int32(j)
		next[tid] = j + 1
	}
}

// removeForResign pulls every item whose signature involves one of the
// flipped types out of the LSH index, under the current (pre-toggle)
// filter, and returns the affected item IDs so reinsert can put them back
// once the shared filter map has been toggled; in entity mode it forgets
// the touched type sets' signatures, for reinsert to sign again.
// Embedding-mode indexes have no type filter and return nil. See
// TypeFilterState.
func (x *LSEI) removeForResign(flips []kg.TypeID) []uint32 {
	if x.minHash == nil || len(flips) == 0 {
		return nil
	}
	fl := make(map[kg.TypeID]bool, len(flips))
	for _, ty := range flips {
		fl[ty] = true
	}
	var out []uint32
	if !x.columnMode {
		old := make([][]uint32, len(x.setSigs)) // the touched sets' signatures
		for id, sig := range x.setSigs {
			if sig != nil && intersects(x.typeSets.sets[id], fl) {
				old[id], x.setSigs[id] = sig, nil
			}
		}
		for e := range x.indexed {
			id := x.typeSets.SetID(e)
			if id < 0 || old[id] == nil {
				continue
			}
			if len(old[id]) > 0 {
				x.index.Remove(uint32(e), old[id])
			}
			delete(x.indexed, e)
			out = append(out, uint32(e))
		}
		return out
	}
	x.ensureColOf()
	for uid, tid := range x.colTable {
		if tid < 0 {
			continue
		}
		ents := x.lake.Table(tid).ColumnEntities(int(x.colOf[uid]))
		hit := false
		for _, e := range ents {
			if intersects(x.typeSets.TypeSet(e), fl) {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		x.index.Remove(uint32(uid), x.minHash.Signature(x.typeShingles(ents)))
		out = append(out, uint32(uid))
	}
	return out
}

// reinsert restores items removed by removeForResign, computing fresh
// signatures under the (now toggled) filter.
func (x *LSEI) reinsert(items []uint32) {
	if x.minHash == nil {
		return
	}
	if !x.columnMode {
		for _, it := range items {
			x.insertEntity(kg.EntityID(it))
		}
		return
	}
	for _, uid := range items {
		tid := x.colTable[uid]
		if tid < 0 {
			continue
		}
		ents := x.lake.Table(tid).ColumnEntities(int(x.colOf[uid]))
		x.index.Insert(uid, x.minHash.Signature(x.typeShingles(ents)))
	}
}

// intersects reports whether the type set contains any flipped type.
func intersects(types []kg.TypeID, flips map[kg.TypeID]bool) bool {
	for _, ty := range types {
		if flips[ty] {
			return true
		}
	}
	return false
}

// FrequentTypesOver returns the types present in more than threshold of
// the lake's live tables (computed over expanded type sets): the
// frequent-type filter of Section 6.1.
func FrequentTypesOver(l *lake.Lake, tj *TypeJaccard, threshold float64) map[kg.TypeID]bool {
	return NewTypeFilterState(l, tj, threshold).Filter()
}

// typeShingles merges the filtered type sets of the given entities and
// shingles them pairwise. Entities repeating an already-merged interned
// type set (TypeJaccard.SetID) are skipped: shingling deduplicates types
// anyway, so dropping whole duplicate sets changes nothing in the shingle
// set while column aggregation over skewed corpora merges far fewer
// elements.
func (x *LSEI) typeShingles(ents []kg.EntityID) []uint64 {
	var merged []uint32
	var seenSets map[int32]bool
	if len(ents) > 1 {
		seenSets = make(map[int32]bool, len(ents))
	}
	for _, e := range ents {
		if seenSets != nil {
			id := x.typeSets.SetID(e)
			if id >= 0 {
				if seenSets[id] {
					continue
				}
				seenSets[id] = true
			}
		}
		for _, ty := range x.typeSets.TypeSet(e) {
			if !x.typeFilter[ty] {
				merged = append(merged, uint32(ty))
			}
		}
	}
	return lsh.TypePairShingles(merged)
}

func (x *LSEI) buildTypeColumns() {
	for tid, t := range x.lake.Tables() {
		if t == nil {
			continue
		}
		for j := 0; j < t.NumColumns(); j++ {
			ents := t.ColumnEntities(j)
			if len(ents) == 0 {
				continue
			}
			sig := x.minHash.Signature(x.typeShingles(ents))
			x.index.Insert(uint32(len(x.colTable)), sig)
			x.colTable = append(x.colTable, lake.TableID(tid))
			x.colOf = append(x.colOf, int32(j))
		}
	}
}

func (x *LSEI) buildEmbeddingColumns() {
	for tid, t := range x.lake.Tables() {
		if t == nil {
			continue
		}
		for j := 0; j < t.NumColumns(); j++ {
			var vecs []embedding.Vector
			for _, e := range t.ColumnEntities(j) {
				if v := x.cos.Vector(e); v != nil {
					vecs = append(vecs, v)
				}
			}
			if len(vecs) == 0 {
				continue
			}
			sig := x.hyper.Signature(embedding.Mean(vecs))
			x.index.Insert(uint32(len(x.colTable)), sig)
			x.colTable = append(x.colTable, lake.TableID(tid))
			x.colOf = append(x.colOf, int32(j))
		}
	}
}

// setSignature is the signature of interned type set id under the current
// filter — the MinHash of the type-pair shingles of its unfiltered types
// (Section 6.1), empty when the filter drops them all — read from setSigs
// when met, else signed, and stored when store is set (index writers only).
// The result is shared and must not be modified.
func (x *LSEI) setSignature(id int32, store bool) []uint32 {
	if int(id) < len(x.setSigs) && x.setSigs[id] != nil {
		return x.setSigs[id]
	}
	var kept []uint32
	for _, ty := range x.typeSets.sets[id] {
		if !x.typeFilter[ty] {
			kept = append(kept, uint32(ty))
		}
	}
	var sig []uint32
	if len(kept) > 0 {
		sig = x.minHash.Signature(lsh.TypePairShingles(kept))
	}
	if store {
		x.setSigs[id] = append([]uint32{}, sig...) // non-nil: met
	}
	return sig
}

// entitySignature returns the probe signature for one entity (shared, not
// to be modified), or nil when the entity has no indexable representation.
// Probes never store a signature, so concurrent ones only read setSigs.
func (x *LSEI) entitySignature(e kg.EntityID) []uint32 {
	if x.minHash != nil {
		if id := x.typeSets.SetID(e); id >= 0 {
			if sig := x.setSignature(id, false); len(sig) > 0 {
				return sig
			}
		}
		return nil
	}
	v := x.cos.Vector(e)
	if v == nil {
		return nil
	}
	return x.hyper.Signature(v)
}

// probeTally accumulates the work of one Candidates call: per-stage wall
// durations and the probe/vote counts that feed the trace and /metrics.
type probeTally struct {
	probeWall time.Duration
	voteWall  time.Duration
	probes    int // signatures probed against the index
	votesCast int // table votes before thresholding
}

// space takes a vote workspace from the pool, sized to the lake's table
// slots (AddTable may have grown them since it was last used).
func (x *LSEI) space() *voteSpace {
	ws, _ := x.spaces.Get().(*voteSpace)
	if ws == nil {
		ws = new(voteSpace)
	}
	ws.fitTables(x.lake.NumSlots())
	return ws
}

// itemSpace is the size of the index's item-ID space: column UIDs in
// column-aggregation mode, the graph's entity IDs otherwise.
func (x *LSEI) itemSpace() int {
	if x.columnMode {
		return len(x.colTable)
	}
	return x.lake.Graph.NumEntities()
}

// probeVote probes the index with one signature: each distinct colliding
// entity (or column) casts one vote for each of its tables, and tables
// reaching the threshold join the request's candidate bitset. The time
// spent splits into the tally's probe and vote stages. The band lookups
// underneath honor ctx (see lsh.Index.Buckets).
func (x *LSEI) probeVote(ctx context.Context, sig []uint32, votes int, ws *voteSpace, tally *probeTally) {
	probeStart := time.Now()
	tally.probes++
	ws.advance()
	gen := ws.gen
	ws.buckets = x.index.Buckets(ctx, sig, ws.buckets[:0])
	for _, bucket := range ws.buckets {
		for _, item := range bucket {
			if int(item) >= len(ws.itemGen) {
				ws.fitItems(max(int(item)+1, x.itemSpace()))
			}
			if ws.itemGen[item] == gen {
				continue // already voted through an earlier band
			}
			ws.itemGen[item] = gen
			if x.columnMode {
				if tid := x.colTable[item]; tid >= 0 {
					ws.vote(tid)
				}
				continue
			}
			for _, tid := range x.lake.TablesWith(kg.EntityID(item)) {
				ws.vote(tid)
			}
		}
	}
	clear(ws.buckets) // drop the views so a pooled workspace pins no bucket
	voteStart := time.Now()
	tally.probeWall += voteStart.Sub(probeStart)
	for _, tid := range ws.touched {
		n := int(ws.votes[tid])
		tally.votesCast += n
		if n >= votes {
			ws.out[tid/64] |= 1 << (tid % 64)
		}
	}
	tally.voteWall += time.Since(voteStart)
}

// finish drains the candidate bitset in table ID order, records the tally
// on the trace (probe and vote stages) and the prefilter metrics, and
// returns the IDs. The workspace is left clean for the pool.
func (x *LSEI) finish(ws *voteSpace, tally probeTally, tr *obs.Trace) []lake.TableID {
	ids := ws.take()
	mPrefilterQueries.Inc()
	mPrefilterProbes.Add(int64(tally.probes))
	mPrefilterVotes.Add(int64(tally.votesCast))
	mPrefilterCands.Observe(float64(len(ids)))
	mPrefilterRed.Set(x.Reduction(ids))
	tr.Add(obs.Stage{Name: "probe", Wall: tally.probeWall, Items: tally.probes})
	tr.Add(obs.Stage{Name: "vote", Wall: tally.voteWall, Items: len(ids)})
	return ids
}

// Candidates returns the prefiltered table set for a query: each query
// entity probes the index, colliding entities (or columns) vote for their
// tables, and tables reaching the vote threshold for at least one query
// entity survive. votes <= 1 disables voting. The result is sorted by
// table ID.
func (x *LSEI) Candidates(q Query, votes int) []lake.TableID {
	return x.CandidatesTracedContext(context.Background(), q, votes, nil)
}

// CandidatesTracedContext is Candidates recording the prefilter's probe and
// vote stages onto tr (nil tr skips tracing; metrics are always updated)
// and honoring cancellation: the probe/vote loop checks ctx between query
// entities (and between band probes underneath), so a dead context returns
// the candidates gathered so far. Callers detect the cutoff via ctx.Err();
// the downstream scoring phase bails out immediately anyway and marks its
// Stats.Truncated.
func (x *LSEI) CandidatesTracedContext(ctx context.Context, q Query, votes int, tr *obs.Trace) []lake.TableID {
	ws := x.space()
	ids := x.candidates(ctx, q, votes, tr, ws)
	// Not deferred: a workspace abandoned by a panic may hold a half-built
	// bitset and must not go back to the pool.
	x.spaces.Put(ws)
	return ids
}

// candidates is CandidatesTracedContext over a caller-held workspace.
func (x *LSEI) candidates(ctx context.Context, q Query, votes int, tr *obs.Trace, ws *voteSpace) []lake.TableID {
	if votes < 1 {
		votes = 1
	}
	stop := newCancelProbe(ctx)
	var tally probeTally
	for _, e := range q.DistinctEntities() {
		if stop.expired() {
			break
		}
		sig := x.entitySignature(e)
		if sig == nil {
			continue
		}
		x.probeVote(ctx, sig, votes, ws, &tally)
	}
	return x.finish(ws, tally, tr)
}

// CandidatesAggregated is Candidates with query-side column aggregation
// (the final optimization of Section 6.2): the entities at each tuple
// position are merged into one probe signature — a merged type set, or a
// mean embedding — so a multi-tuple query costs as many LSH lookups as a
// 1-tuple query, trading a further approximation for lookup cost.
func (x *LSEI) CandidatesAggregated(q Query, votes int) []lake.TableID {
	if votes < 1 {
		votes = 1
	}
	width := 0
	for _, t := range q {
		if len(t) > width {
			width = len(t)
		}
	}
	ws := x.space()
	var tally probeTally
	for col := 0; col < width; col++ {
		var ents []kg.EntityID
		for _, t := range q {
			if col < len(t) {
				ents = append(ents, t[col])
			}
		}
		sig := x.groupSignature(ents)
		if sig == nil {
			continue
		}
		x.probeVote(context.Background(), sig, votes, ws, &tally)
	}
	ids := x.finish(ws, tally, nil)
	x.spaces.Put(ws)
	return ids
}

// groupSignature computes one probe signature for a group of entities:
// merged type shingles, or the mean of available embeddings.
func (x *LSEI) groupSignature(ents []kg.EntityID) []uint32 {
	if x.minHash != nil {
		sh := x.typeShingles(ents)
		if len(sh) == 0 {
			return nil
		}
		return x.minHash.Signature(sh)
	}
	var vecs []embedding.Vector
	for _, e := range ents {
		if v := x.cos.Vector(e); v != nil {
			vecs = append(vecs, v)
		}
	}
	m := embedding.Mean(vecs)
	if m == nil {
		return nil
	}
	return x.hyper.Signature(m)
}

// Reduction returns the search-space reduction achieved by a candidate set
// against the full lake, the metric of Table 4 (e.g. 0.886 = 88.6%).
func (x *LSEI) Reduction(candidates []lake.TableID) float64 {
	n := x.lake.NumTables()
	if n == 0 {
		return 0
	}
	return 1 - float64(len(candidates))/float64(n)
}

// NumBuckets exposes the underlying index's bucket count (diagnostics).
func (x *LSEI) NumBuckets() int { return x.index.NumBuckets() }

// NumItems exposes how many signatures the underlying index holds
// (entities in entity mode, columns in column-aggregation mode) —
// diagnostics, exported on thetis_index_items. O(1).
func (x *LSEI) NumItems() int { return x.index.NumItems() }

// Config returns the configuration the index was built or loaded with.
func (x *LSEI) Config() LSEIConfig { return x.cfg }

// TypeFilter returns the frequent-type filter map the index's signatures
// were computed under (nil-or-empty for embedding mode). It is the live
// instance, not a copy: ResumeTypeFilterState adopts it after a snapshot
// load so later mutations can keep filter and signatures in lockstep.
func (x *LSEI) TypeFilter() map[kg.TypeID]bool { return x.typeFilter }
