package embedding

import (
	"container/heap"
	"math"
	"sort"

	"thetis/internal/kg"
)

// HNSWConfig shapes a hierarchical navigable small world graph (Malkov &
// Yashunin). All parameters are deterministic inputs: two builds over the
// same store with the same config produce identical graphs.
type HNSWConfig struct {
	// M is the maximum neighbor count per node on layers above 0; layer 0
	// allows 2M. Higher M improves recall at the cost of memory and build
	// time.
	M int
	// EfConstruction is the beam width used while inserting nodes. It only
	// affects build quality, not query cost.
	EfConstruction int
	// EfSearch is the default beam width of TopK. Recall rises with it;
	// EfSearch ≥ graph size makes layer-0 search exhaustive over the
	// connected component, recovering exact results.
	EfSearch int
	// Seed drives the level-assignment RNG. Levels depend only on (Seed,
	// insertion ordinal), never on the wall clock, which is what makes
	// rebuilds reproducible.
	Seed int64
}

// DefaultHNSWConfig returns the parameters used by the serving path:
// M=16, efConstruction=200, efSearch=64 (see docs/ANN.md for the measured
// recall/latency trade-off).
func DefaultHNSWConfig() HNSWConfig {
	return HNSWConfig{M: 16, EfConstruction: 200, EfSearch: 64, Seed: 1}
}

// Neighbor is one approximate nearest neighbor: an entity and its cosine
// similarity to the query vector (vectors are unit-normalized at build, so
// the similarity is a single dot product).
type Neighbor struct {
	ID    kg.EntityID
	Score float64
}

// HNSW is a pure-Go approximate nearest-neighbor index over an embedding
// store. It is immutable after BuildHNSW and safe for concurrent TopK
// calls. Ties are broken by ascending entity ID everywhere, so searches are
// deterministic across runs and parallelism levels.
type HNSW struct {
	cfg HNSWConfig
	dim int

	// ids maps node ordinal (insertion order) to entity ID.
	ids []kg.EntityID
	// vecs is the unit-normalized vector arena: node n occupies
	// vecs[n*dim : (n+1)*dim].
	vecs []float32
	// levels[n] is node n's top layer.
	levels []int32
	// links[n][l] are node n's neighbors (node ordinals) at layer l,
	// l ≤ levels[n]. Edges are symmetric: m ∈ links[n][l] ⇔ n ∈ links[m][l].
	links [][][]uint32

	entry    int32 // entry node ordinal; -1 when the graph is empty
	maxLevel int32
}

// Len returns the number of indexed entities.
func (h *HNSW) Len() int { return len(h.ids) }

// BuildHNSW indexes every entity of store that has a vector, in ascending
// entity ID order. Combined with the seeded level RNG this makes builds
// reproducible: same store, same config, same graph.
func BuildHNSW(store *Store, cfg HNSWConfig) *HNSW {
	if cfg.M <= 0 {
		cfg.M = DefaultHNSWConfig().M
	}
	if cfg.EfConstruction < cfg.M {
		cfg.EfConstruction = DefaultHNSWConfig().EfConstruction
	}
	if cfg.EfSearch <= 0 {
		cfg.EfSearch = DefaultHNSWConfig().EfSearch
	}
	norm := store.Normalized()
	h := &HNSW{cfg: cfg, dim: norm.Dim(), entry: -1}
	rng := levelRNG{state: uint64(cfg.Seed)}
	mL := 1 / math.Log(float64(cfg.M))
	for e := 0; e < norm.NumSlots(); e++ {
		v, ok := norm.Get(kg.EntityID(e))
		if !ok {
			continue
		}
		h.insert(kg.EntityID(e), v, rng.level(mL))
	}
	return h
}

// NumSlots returns the size of the dense entity ID space the store covers
// (indexable IDs are [0, NumSlots), with or without a vector).
func (s *Store) NumSlots() int { return len(s.has) }

// levelRNG derives insertion levels from a splitmix64 stream. One draw per
// insert; the sequence depends only on the seed.
type levelRNG struct{ state uint64 }

func (r *levelRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// level draws floor(-ln(U)·mL), the standard HNSW level distribution,
// capped so a pathological draw cannot allocate an absurd layer stack.
func (r *levelRNG) level(mL float64) int32 {
	// 53 uniform bits in (0,1]; never 0, so Log is finite.
	u := (float64(r.next()>>11) + 1) / (1 << 53)
	l := int32(-math.Log(u) * mL)
	if l > maxHNSWLevel {
		l = maxHNSWLevel
	}
	return l
}

// maxHNSWLevel bounds layer stacks: with mL = 1/ln(16) reaching level 63
// has probability ~16^-63, so the cap never binds on real builds.
const maxHNSWLevel = 63

func (h *HNSW) vec(n uint32) Vector {
	return Vector(h.vecs[int(n)*h.dim : (int(n)+1)*h.dim])
}

func (h *HNSW) maxNeighbors(layer int32) int {
	if layer == 0 {
		return 2 * h.cfg.M
	}
	return h.cfg.M
}

// insert adds one entity at the given top level, wiring symmetric edges.
func (h *HNSW) insert(e kg.EntityID, v Vector, level int32) {
	n := uint32(len(h.ids))
	h.ids = append(h.ids, e)
	h.vecs = append(h.vecs, v...)
	h.levels = append(h.levels, level)
	h.links = append(h.links, make([][]uint32, level+1))

	if h.entry < 0 {
		h.entry = int32(n)
		h.maxLevel = level
		return
	}

	ep := uint32(h.entry)
	// Greedy descent through layers above the new node's level.
	for lc := h.maxLevel; lc > level; lc-- {
		ep = h.greedyStep(v, ep, lc)
	}
	// Beam search and connect on the shared layers.
	top := level
	if top > h.maxLevel {
		top = h.maxLevel
	}
	for lc := top; lc >= 0; lc-- {
		cands := h.searchLayer(v, []uint32{ep}, h.cfg.EfConstruction, lc, nil)
		for _, c := range h.selectNeighbors(v, cands, h.cfg.M) {
			h.connect(n, c.node, lc)
		}
		if len(cands) > 0 {
			ep = cands[0].node
		}
	}
	if level > h.maxLevel {
		h.entry = int32(n)
		h.maxLevel = level
	}
}

// connect adds the symmetric edge (a,b) at the given layer, shrinking
// either endpoint's list back to its cap by dropping the least similar
// edge — on both sides, so links stay symmetric.
func (h *HNSW) connect(a, b uint32, layer int32) {
	h.links[a][layer] = append(h.links[a][layer], b)
	h.links[b][layer] = append(h.links[b][layer], a)
	h.shrink(a, layer)
	h.shrink(b, layer)
}

// selectNeighbors is the paper's heuristic neighbor selection (Algorithm
// 4): walk candidates best-first and keep one only when it is closer to
// the query point than to every neighbor already kept, so edges spread
// across directions instead of crowding the query's densest cluster —
// the difference between ~0.90 and ~0.99 recall on clustered embedding
// stores. Remaining slots are refilled from the pruned candidates in
// order (the keepPrunedConnections variant), preserving degree.
func (h *HNSW) selectNeighbors(v Vector, cands []scoredNode, m int) []scoredNode {
	if len(cands) <= m {
		return cands
	}
	sel := make([]scoredNode, 0, m)
	pruned := make([]scoredNode, 0, len(cands)-m)
	for _, c := range cands {
		if len(sel) >= m {
			break
		}
		cv := h.vec(c.node)
		diverse := true
		for _, s := range sel {
			if dot32(cv, h.vec(s.node)) > c.score {
				diverse = false
				break
			}
		}
		if diverse {
			sel = append(sel, c)
		} else {
			pruned = append(pruned, c)
		}
	}
	for _, c := range pruned {
		if len(sel) >= m {
			break
		}
		sel = append(sel, c)
	}
	return sel
}

// shrink re-selects node n's edge list with the diversity heuristic when
// it exceeds the layer cap, dropping the pruned edges. An edge whose far
// endpoint would be left with no edges at this layer is kept regardless
// (overflow accepted): new nodes always stay attached to the component
// they joined through, which is what the layer-0 connectivity battery
// pins down.
func (h *HNSW) shrink(n uint32, layer int32) {
	max := h.maxNeighbors(layer)
	if len(h.links[n][layer]) <= max {
		return
	}
	nv := h.vec(n)
	cands := make([]scoredNode, len(h.links[n][layer]))
	for i, m := range h.links[n][layer] {
		cands[i] = scoredNode{node: m, score: dot32(nv, h.vec(m))}
	}
	sort.Slice(cands, func(i, j int) bool { return better(cands[i], cands[j]) })
	kept := make(map[uint32]bool, max)
	for _, c := range h.selectNeighbors(nv, cands, max) {
		kept[c.node] = true
	}
	for _, c := range cands {
		if len(h.links[n][layer]) <= max {
			return
		}
		if kept[c.node] || len(h.links[c.node][layer]) <= 1 {
			continue // selected, or dropping would strand c at this layer
		}
		h.dropEdge(n, c.node, layer)
	}
}

// dropEdge removes the symmetric edge (a,b) at layer.
func (h *HNSW) dropEdge(a, b uint32, layer int32) {
	h.links[a][layer] = removeNode(h.links[a][layer], b)
	h.links[b][layer] = removeNode(h.links[b][layer], a)
}

func removeNode(ls []uint32, n uint32) []uint32 {
	for i, m := range ls {
		if m == n {
			return append(ls[:i], ls[i+1:]...)
		}
	}
	return ls
}

// greedyStep walks layer lc from ep to the locally best node for v.
func (h *HNSW) greedyStep(v Vector, ep uint32, lc int32) uint32 {
	best, bestScore := ep, dot32(v, h.vec(ep))
	for {
		improved := false
		for _, m := range h.neighborsAt(best, lc) {
			s := dot32(v, h.vec(m))
			if s > bestScore || (s == bestScore && m < best) {
				best, bestScore = m, s
				improved = true
			}
		}
		if !improved {
			return best
		}
	}
}

func (h *HNSW) neighborsAt(n uint32, lc int32) []uint32 {
	if lc > h.levels[n] {
		return nil
	}
	return h.links[n][lc]
}

// scoredNode orders candidates by descending score with ascending node
// ordinal as the tie-break, the total order that keeps searches
// deterministic.
type scoredNode struct {
	node  uint32
	score float64
}

func better(a, b scoredNode) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.node < b.node
}

// candHeap is a max-heap by better (best candidate on top).
type candHeap []scoredNode

func (h candHeap) Len() int            { return len(h) }
func (h candHeap) Less(i, j int) bool  { return better(h[i], h[j]) }
func (h candHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(scoredNode)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// resultHeap is a min-heap by better (worst kept result on top), bounding
// the result set to ef.
type resultHeap []scoredNode

func (h resultHeap) Len() int            { return len(h) }
func (h resultHeap) Less(i, j int) bool  { return better(h[j], h[i]) }
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(scoredNode)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// searchLayer is the standard HNSW best-first beam search at one layer,
// returning up to ef nodes sorted best-first. With ef ≥ graph size the
// result heap never fills, the early-exit never fires, and the search
// visits the whole connected component — the exactness escape hatch.
func (h *HNSW) searchLayer(v Vector, eps []uint32, ef int, lc int32, visited []bool) []scoredNode {
	if visited == nil {
		visited = make([]bool, len(h.ids))
	}
	var cands candHeap
	var results resultHeap
	for _, ep := range eps {
		if visited[ep] {
			continue
		}
		visited[ep] = true
		sn := scoredNode{node: ep, score: dot32(v, h.vec(ep))}
		heap.Push(&cands, sn)
		heap.Push(&results, sn)
	}
	for cands.Len() > 0 {
		c := heap.Pop(&cands).(scoredNode)
		if results.Len() >= ef && better(results[0], c) {
			break
		}
		for _, m := range h.neighborsAt(c.node, lc) {
			if visited[m] {
				continue
			}
			visited[m] = true
			sn := scoredNode{node: m, score: dot32(v, h.vec(m))}
			if results.Len() < ef {
				heap.Push(&cands, sn)
				heap.Push(&results, sn)
			} else if better(sn, results[0]) {
				heap.Push(&cands, sn)
				heap.Pop(&results)
				heap.Push(&results, sn)
			}
		}
	}
	out := []scoredNode(results)
	sort.Slice(out, func(i, j int) bool { return better(out[i], out[j]) })
	return out
}

// TopK returns the k approximate nearest entities to vec by cosine
// similarity, best first, ties by ascending entity ID. The beam width is
// max(cfg.EfSearch, k); use TopKEf to override it. vec need not be
// normalized (it is normalized into a scratch copy when necessary).
func (h *HNSW) TopK(vec Vector, k int) []Neighbor {
	return h.TopKEf(vec, k, h.cfg.EfSearch)
}

// TopKEf is TopK with an explicit beam width ef (clamped up to k), the knob
// the recall harness sweeps.
func (h *HNSW) TopKEf(vec Vector, k, ef int) []Neighbor {
	if k <= 0 || h.entry < 0 || len(vec) != h.dim {
		return nil
	}
	v := vec
	if n := Norm(vec); n != 0 && math.Abs(n-1) > 1e-6 {
		v = append(Vector(nil), vec...)
		Normalize(v)
	}
	if ef < k {
		ef = k
	}
	ep := uint32(h.entry)
	for lc := h.maxLevel; lc > 0; lc-- {
		ep = h.greedyStep(v, ep, lc)
	}
	found := h.searchLayer(v, []uint32{ep}, ef, 0, nil)
	if len(found) > k {
		found = found[:k]
	}
	out := make([]Neighbor, len(found))
	for i, sn := range found {
		out[i] = Neighbor{ID: h.ids[sn.node], Score: sn.score}
	}
	// Entity-ID tie-break for equal scores (node ordinals follow ID order
	// under BuildHNSW, but not under every insertion order).
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// BruteForceTopK is the exact reference TopK over a normalized store: full
// scan, same ordering contract. The differential harness scores HNSW
// recall against it.
func BruteForceTopK(norm *Store, vec Vector, k int) []Neighbor {
	if k <= 0 || len(vec) != norm.Dim() {
		return nil
	}
	v := vec
	if n := Norm(vec); n != 0 && math.Abs(n-1) > 1e-6 {
		v = append(Vector(nil), vec...)
		Normalize(v)
	}
	var all []Neighbor
	for e := 0; e < norm.NumSlots(); e++ {
		ev, ok := norm.Get(kg.EntityID(e))
		if !ok {
			continue
		}
		all = append(all, Neighbor{ID: kg.EntityID(e), Score: dot32(v, ev)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// dot32 is Dot with the float64 accumulation the rest of the package uses,
// kept local so the hot loop inlines.
func dot32(a, b Vector) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}
