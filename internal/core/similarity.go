// Package core implements the paper's primary contribution: the semantic
// relevance score SemRel between entity-tuple queries and data lake tables
// (Section 4), the Hungarian query-to-column mapping (Section 5.1), the
// exact table search of Algorithm 1 (Section 5.3), and the LSH-based
// prefiltering of Section 6.
package core

import (
	"math"
	"math/bits"
	"sync/atomic"

	"thetis/internal/embedding"
	"thetis/internal/kg"
)

// Similarity is the entity semantic similarity σ : N × N → [0, 1] of
// Section 4.1, with σ(e, e) = 1. Implementations must be safe for
// concurrent use and deterministic: Score must always return the same
// value for the same pair, which is what lets SigmaCache memoize it
// without changing any search result. A σ the cache fills a row at a time
// with a kernel of its own (EmbeddingCosine, see cosineRow) must agree with
// Score bit for bit on every cell of the row, for the same reason: a cell
// is filled by whichever path reaches it first.
type Similarity interface {
	// Score returns the semantic similarity of two entities in [0, 1].
	Score(a, b kg.EntityID) float64
}

// MaxJaccard caps the adjusted type-Jaccard similarity for non-identical
// entities (Equation 4 of the paper).
const MaxJaccard = 0.95

// bitsetMaxTypes bounds the taxonomy size for which TypeJaccard keeps a
// fixed-size bitset per distinct type set (one popcount-friendly word per
// 64 types). Beyond it only the interned sorted slices are kept and Score
// falls back to a linear merge. 4096 types = 512 bytes per distinct set.
const bitsetMaxTypes = 4096

// TypeJaccard scores entities by the adjusted Jaccard similarity of their
// (taxonomy-expanded) type sets: 1 for identical entities, otherwise the
// Jaccard of the type sets capped at 0.95 (Equation 4).
//
// Type sets are expanded, sorted, and interned at construction through a
// kg.TypeSetInterner: every entity holds a dense set ID into a table of
// canonical sets, so duplicate sets share one allocation, two entities
// with the same set ID short-circuit to Jaccard 1 without touching the
// elements, and — when the taxonomy has at most 4096 types — Equation 4's
// intersection runs as a popcount over fixed-size bitsets instead of a
// merge.
type TypeJaccard struct {
	// setID[e] indexes sets/bitsets; -1 marks an empty type set.
	setID []int32
	// sets holds one canonical sorted slice per distinct type set.
	sets [][]kg.TypeID
	// bitsets[i] is the bitset of sets[i]; nil when the taxonomy is too
	// large for bitset mode.
	bitsets [][]uint64
}

// NewTypeJaccard precomputes expanded type sets for every entity of g.
// Expansion through the taxonomy mirrors DBpedia's materialized types,
// where entities carry "multiple types at different levels of granularity".
// Per-type closures are memoized and the per-entity results interned, so
// construction is linear in the number of (entity, direct type) pairs
// rather than in the total size of all expanded sets.
func NewTypeJaccard(g *kg.Graph) *TypeJaccard {
	tj := &TypeJaccard{setID: make([]int32, g.NumEntities())}
	in := kg.NewTypeSetInterner()
	closures := make([][]kg.TypeID, g.NumTypes())
	var scratch []kg.TypeID
	for e := kg.EntityID(0); int(e) < g.NumEntities(); e++ {
		scratch = scratch[:0]
		for _, t := range g.Types(e) {
			if closures[t] == nil {
				closures[t] = g.TypeClosure(t)
			}
			scratch = append(scratch, closures[t]...)
		}
		ts := sortDedupe(scratch)
		if len(ts) == 0 {
			tj.setID[e] = -1
			continue
		}
		_, id := in.Intern(ts)
		tj.setID[e] = id
	}
	tj.sets = in.Sets()
	if g.NumTypes() <= bitsetMaxTypes {
		words := (g.NumTypes() + 63) / 64
		tj.bitsets = make([][]uint64, len(tj.sets))
		for i, ts := range tj.sets {
			b := make([]uint64, words)
			for _, t := range ts {
				b[t/64] |= 1 << (t % 64)
			}
			tj.bitsets[i] = b
		}
	}
	return tj
}

// sortDedupe sorts ts in place and removes duplicates (insertion sort: the
// merged closure lists are short and mostly sorted already).
func sortDedupe(ts []kg.TypeID) []kg.TypeID {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// TypeSet returns the expanded, sorted type set of e. The slice is the
// interned canonical copy, shared by every entity with an equal set; it is
// owned by the receiver and must not be modified. Entities added to the
// graph after construction have an empty set; rebuild the TypeJaccard to
// pick them up.
func (tj *TypeJaccard) TypeSet(e kg.EntityID) []kg.TypeID {
	if int(e) >= len(tj.setID) || tj.setID[e] < 0 {
		return nil
	}
	return tj.sets[tj.setID[e]]
}

// SetID returns the dense interned type-set ID of e, or -1 when e has no
// types (or is out of range). Two entities share an ID exactly when their
// expanded type sets are equal, which callers can use to deduplicate
// per-set work (the LSEI prefilter skips repeated sets this way).
func (tj *TypeJaccard) SetID(e kg.EntityID) int32 {
	if int(e) >= len(tj.setID) {
		return -1
	}
	return tj.setID[e]
}

// NumTypeSets returns the number of distinct non-empty expanded type sets
// across all entities — the size of the intern table.
func (tj *TypeJaccard) NumTypeSets() int { return len(tj.sets) }

// Score implements Similarity per Equation 4.
func (tj *TypeJaccard) Score(a, b kg.EntityID) float64 {
	if a == b {
		return 1
	}
	if int(a) >= len(tj.setID) || int(b) >= len(tj.setID) {
		return 0
	}
	sa, sb := tj.setID[a], tj.setID[b]
	if sa < 0 || sb < 0 {
		return 0
	}
	if sa == sb {
		// Identical sets: Jaccard 1, capped for non-identical entities.
		return MaxJaccard
	}
	ta, tb := tj.sets[sa], tj.sets[sb]
	inter := 0
	if tj.bitsets != nil {
		ba, bb := tj.bitsets[sa], tj.bitsets[sb]
		for w := range ba {
			inter += bits.OnesCount64(ba[w] & bb[w])
		}
	} else {
		i, j := 0, 0
		for i < len(ta) && j < len(tb) {
			switch {
			case ta[i] == tb[j]:
				inter++
				i++
				j++
			case ta[i] < tb[j]:
				i++
			default:
				j++
			}
		}
	}
	union := len(ta) + len(tb) - inter
	jac := float64(inter) / float64(union)
	if jac > MaxJaccard {
		return MaxJaccard
	}
	return jac
}

// EmbeddingCosine scores entities by the cosine similarity of their
// embedding vectors, clamped to [0, 1] to satisfy the σ contract (negative
// cosine means "unrelated", not "negatively relevant"). Vectors are
// unit-normalized once at construction into a single contiguous arena
// (embedding.Store.Normalized), so Score is one dot product over two
// cache-adjacent slices. Entities without an embedding have similarity 0
// to everything but themselves.
type EmbeddingCosine struct {
	norm *embedding.Store // unit-normalized arena copy of the source store
}

// NewEmbeddingCosine precomputes unit-normalized vectors from store.
func NewEmbeddingCosine(g *kg.Graph, store *embedding.Store) *EmbeddingCosine {
	return &EmbeddingCosine{norm: store.Normalized()}
}

// Vector returns the unit-normalized embedding of e, or nil when absent.
// The slice aliases the arena and must not be modified.
func (ec *EmbeddingCosine) Vector(e kg.EntityID) embedding.Vector {
	v, ok := ec.norm.Get(e)
	if !ok {
		return nil
	}
	return v
}

// Score implements Similarity.
func (ec *EmbeddingCosine) Score(a, b kg.EntityID) float64 {
	if a == b {
		return 1
	}
	va, vb := ec.Vector(a), ec.Vector(b)
	if va == nil || vb == nil {
		return 0
	}
	return clampCosine(embedding.Dot(va, vb))
}

// clampCosine maps a cosine to σ's [0, 1]: Score's last step, and the row
// kernel's.
func clampCosine(cos float64) float64 {
	if cos <= 0 {
		return 0
	}
	if cos > 1 {
		return 1
	}
	return cos
}

// cosineRow is EmbeddingCosine's row kernel. It scores one corpus entity
// against every distinct query entity of a search at once, which is how the
// dense σ cache fills a missing row (SigmaCache.fillRow). The query
// entities' unit vectors are widened to float64 once, which is exact. They
// sit in one slab in slot order (lanes[di·dim + i] is coordinate i of query
// entity di), padded with zero vectors to a multiple of four; the padding's
// results are discarded. One pass over the target's vector then feeds four
// lanes: four independent add chains, where a lone embedding.Dot waits on
// the latency of each add. Each lane adds q[i] · t[i] in index order, which
// is Dot's own sequence of operations whether or not the backend fuses the
// multiply-add, so a lane's sum has Dot's bits. Score's identity,
// missing-vector and clamp rules are applied afterwards, in fill.
type cosineRow struct {
	ec    *EmbeddingCosine // nil: the σ has no row kernel
	dim   int
	lanes []float64
	has   []bool // has[di]: query entity di has a vector
}

// newCosineRow builds the kernel for the distinct query entities of one
// search.
func newCosineRow(ec *EmbeddingCosine, entities []kg.EntityID) cosineRow {
	dim := ec.norm.Dim()
	k := cosineRow{
		ec:    ec,
		dim:   dim,
		lanes: make([]float64, (len(entities)+3)/4*4*dim),
		has:   make([]bool, len(entities)),
	}
	for di, e := range entities {
		v := ec.Vector(e)
		if v == nil {
			continue
		}
		k.has[di] = true
		for i, x := range v {
			k.lanes[di*dim+i] = float64(x)
		}
	}
	return k
}

// fill is Score(entities[di], target) for every slot di whose value in out
// carries sigmaUnset's bits: it leaves σ in out[di] and stores its bits in
// cells[di], target's dense row of the σ cache. Other values are left as
// they are. Every group of four slots costs one cosineLanes pass.
func (k *cosineRow) fill(target kg.EntityID, entities []kg.EntityID, out []float64, cells []uint64) {
	t := k.ec.Vector(target)
	for g := 0; g < len(out); g += 4 {
		var s [4]float64
		if t != nil {
			s[0], s[1], s[2], s[3] = cosineLanes(k.lanes[g*k.dim:], t)
		}
		for l, di := 0, g; l < 4 && di < len(out); l, di = l+1, di+1 {
			if math.Float64bits(out[di]) != sigmaUnset {
				continue
			}
			// Score's rules, in Score's order.
			v := 0.0
			switch {
			case entities[di] == target:
				v = 1
			case t != nil && k.has[di]:
				v = clampCosine(s[l])
			}
			out[di] = v
			atomic.StoreUint64(&cells[di], math.Float64bits(v))
		}
	}
}

// cosineLanes returns the dot products of t with the four consecutive query
// vectors at the head of q (len(q) ≥ 4·len(t)).
func cosineLanes(q []float64, t embedding.Vector) (s0, s1, s2, s3 float64) {
	n := len(t)
	q0, q1, q2, q3 := q[:n], q[n:][:n], q[2*n:][:n], q[3*n:][:n]
	for i, x := range t {
		tx := float64(x)
		s0 += q0[i] * tx
		s1 += q1[i] * tx
		s2 += q2[i] * tx
		s3 += q3[i] * tx
	}
	return
}
