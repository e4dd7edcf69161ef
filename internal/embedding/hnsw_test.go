package embedding

import (
	"math/rand"
	"reflect"
	"testing"

	"thetis/internal/kg"
)

// randomStore fills a store with n unit-scale random vectors (every slot
// below n gets one; IDs are dense).
func randomStore(n, dim int, seed int64) *Store {
	rng := rand.New(rand.NewSource(seed))
	s := NewStore(n, dim)
	v := make(Vector, dim)
	for e := 0; e < n; e++ {
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		s.Set(kg.EntityID(e), v)
	}
	return s
}

// recallAgainstExact returns mean recall@k of the HNSW result sets versus
// brute force over nq query vectors drawn from the store itself.
func recallAgainstExact(t *testing.T, h *HNSW, norm *Store, k, ef, nq int) float64 {
	t.Helper()
	total := 0.0
	for q := 0; q < nq; q++ {
		e := kg.EntityID(q * norm.NumSlots() / nq)
		v, ok := norm.Get(e)
		if !ok {
			continue
		}
		exact := BruteForceTopK(norm, v, k)
		got := h.TopKEf(v, k, ef)
		want := make(map[kg.EntityID]bool, len(exact))
		for _, nb := range exact {
			want[nb.ID] = true
		}
		hit := 0
		for _, nb := range got {
			if want[nb.ID] {
				hit++
			}
		}
		total += float64(hit) / float64(len(exact))
	}
	return total / float64(nq)
}

func TestHNSWTopKRecall(t *testing.T) {
	store := randomStore(800, 16, 7)
	norm := store.Normalized()
	h := BuildHNSW(store, HNSWConfig{M: 12, EfConstruction: 120, EfSearch: 64, Seed: 1})
	if h.Len() != 800 {
		t.Fatalf("Len = %d, want 800", h.Len())
	}
	if r := recallAgainstExact(t, h, norm, 10, 64, 50); r < 0.95 {
		t.Fatalf("recall@10 ef=64 = %.3f, want >= 0.95", r)
	}
}

// TestHNSWExactWhenEfCoversStore: with efSearch ≥ store size layer-0
// search is exhaustive over the connected component, so results must match
// brute force exactly — the exactness escape hatch documented in
// docs/ANN.md.
func TestHNSWExactWhenEfCoversStore(t *testing.T) {
	store := randomStore(300, 12, 11)
	norm := store.Normalized()
	h := BuildHNSW(store, HNSWConfig{M: 8, EfConstruction: 80, EfSearch: 300, Seed: 3})
	for q := 0; q < 20; q++ {
		e := kg.EntityID(q * 15)
		v, _ := norm.Get(e)
		exact := BruteForceTopK(norm, v, 10)
		got := h.TopK(v, 10)
		if !reflect.DeepEqual(exact, got) {
			t.Fatalf("entity %d: ef >= N result diverges from brute force:\n got %v\nwant %v", e, got, exact)
		}
	}
}

// TestHNSWBuildDeterminism: two builds over the same store and config must
// produce the same graph, field for field (seeded level RNG, ID-ordered
// inserts, deterministic tie-breaks).
func TestHNSWBuildDeterminism(t *testing.T) {
	store := randomStore(400, 12, 21)
	cfg := HNSWConfig{M: 8, EfConstruction: 100, EfSearch: 32, Seed: 9}
	a, b := BuildHNSW(store, cfg), BuildHNSW(store, cfg)
	if a.Len() != 400 || !reflect.DeepEqual(a, b) {
		t.Fatal("two builds over the same store produced different graphs")
	}
}

func TestHNSWEdgeCases(t *testing.T) {
	empty := BuildHNSW(NewStore(0, 4), DefaultHNSWConfig())
	if got := empty.TopK(Vector{1, 0, 0, 0}, 5); got != nil {
		t.Fatalf("empty graph returned %v", got)
	}

	store := randomStore(10, 4, 1)
	h := BuildHNSW(store, DefaultHNSWConfig())
	if got := h.TopK(Vector{1, 0}, 3); got != nil {
		t.Fatalf("dim mismatch returned %v", got)
	}
	if got := h.TopK(Vector{1, 0, 0, 0}, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	if got := h.TopK(Vector{1, 0, 0, 0}, 100); len(got) != 10 {
		t.Fatalf("k > len returned %d results, want 10", len(got))
	}
}

// TestHNSWSkipsEntitiesWithoutVectors: only entities holding a vector are
// indexed; gaps in the dense ID space do not produce phantom neighbors.
func TestHNSWSkipsEntitiesWithoutVectors(t *testing.T) {
	s := NewStore(20, 4)
	for e := 0; e < 20; e += 3 {
		s.Set(kg.EntityID(e), Vector{float32(e), 1, 0, 0})
	}
	h := BuildHNSW(s, HNSWConfig{M: 4, EfConstruction: 20, EfSearch: 20, Seed: 1})
	if h.Len() != 7 {
		t.Fatalf("Len = %d, want 7", h.Len())
	}
	for _, nb := range h.TopK(Vector{5, 1, 0, 0}, 7) {
		if nb.ID%3 != 0 {
			t.Fatalf("phantom neighbor %d", nb.ID)
		}
	}
}
