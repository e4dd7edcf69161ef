package lsh

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"thetis/internal/embedding"
)

func TestMinHashIdenticalSets(t *testing.T) {
	m := NewMinHasher(64, 1)
	s := []uint64{1, 2, 3, 99}
	a := m.Signature(s)
	b := m.Signature([]uint64{99, 3, 2, 1})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("signatures of the same set differ")
		}
	}
}

func TestMinHashEmptySet(t *testing.T) {
	m := NewMinHasher(16, 1)
	sig := m.Signature(nil)
	for _, v := range sig {
		if v != ^uint32(0) {
			t.Fatal("empty-set signature should be all max")
		}
	}
}

func TestMinHashJaccardEstimate(t *testing.T) {
	m := NewMinHasher(512, 7)
	// Two sets with known Jaccard 50/150 = 1/3.
	a := make([]uint64, 100)
	b := make([]uint64, 100)
	for i := 0; i < 100; i++ {
		a[i] = uint64(i)
		b[i] = uint64(i + 50)
	}
	est := JaccardEstimate(m.Signature(a), m.Signature(b))
	if math.Abs(est-1.0/3.0) > 0.08 {
		t.Errorf("Jaccard estimate = %v, want ~0.333", est)
	}
	// Disjoint sets.
	c := []uint64{1000, 2000}
	est = JaccardEstimate(m.Signature(a), m.Signature(c))
	if est > 0.1 {
		t.Errorf("disjoint estimate = %v, want ~0", est)
	}
}

func TestJaccardEstimateDegenerate(t *testing.T) {
	if JaccardEstimate([]uint32{1}, []uint32{1, 2}) != 0 {
		t.Error("length mismatch should estimate 0")
	}
	if JaccardEstimate(nil, nil) != 0 {
		t.Error("empty signatures should estimate 0")
	}
}

func TestTypePairShingles(t *testing.T) {
	got := TypePairShingles([]uint32{3, 1})
	// Pairs: (1,1), (1,3), (3,3)
	want := []uint64{1<<32 | 1, 1<<32 | 3, 3<<32 | 3}
	if len(got) != len(want) {
		t.Fatalf("shingles = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shingles = %v, want %v", got, want)
		}
	}
	if TypePairShingles(nil) != nil {
		t.Error("nil types should give nil shingles")
	}
	// Duplicates collapse.
	if got := TypePairShingles([]uint32{5, 5}); len(got) != 1 {
		t.Errorf("duplicate types shingles = %v", got)
	}
}

func TestHyperplaneSignatureDeterministicAndBinary(t *testing.T) {
	h := NewHyperplaneHasher(32, 8, 3)
	v := embedding.Vector{1, -1, 0.5, 0, 2, -3, 1, 1}
	a := h.Signature(v)
	b := h.Signature(v)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("hyperplane signature not deterministic")
		}
		if a[i] > 1 {
			t.Fatal("signature values must be bits")
		}
	}
}

func TestHyperplaneSimilarVectorsShareBits(t *testing.T) {
	h := NewHyperplaneHasher(256, 16, 5)
	rng := rand.New(rand.NewSource(8))
	base := make(embedding.Vector, 16)
	for i := range base {
		base[i] = float32(rng.NormFloat64())
	}
	near := append(embedding.Vector(nil), base...)
	near[0] += 0.01
	far := make(embedding.Vector, 16)
	for i := range far {
		far[i] = -base[i]
	}
	agreeNear := agreement(h.Signature(base), h.Signature(near))
	agreeFar := agreement(h.Signature(base), h.Signature(far))
	if agreeNear < 0.95 {
		t.Errorf("near vector agreement = %v, want ~1", agreeNear)
	}
	if agreeFar > 0.05 {
		t.Errorf("opposite vector agreement = %v, want ~0", agreeFar)
	}
}

func agreement(a, b []uint32) float64 {
	n := 0
	for i := range a {
		if a[i] == b[i] {
			n++
		}
	}
	return float64(n) / float64(len(a))
}

func TestIndexInsertQuery(t *testing.T) {
	ix := NewIndex(32, 8)
	if ix.Bands() != 4 {
		t.Fatalf("bands = %d, want 4", ix.Bands())
	}
	m := NewMinHasher(32, 1)
	sigA := m.Signature([]uint64{1, 2, 3})
	sigB := m.Signature([]uint64{1, 2, 3})
	sigC := m.Signature([]uint64{500, 600, 700})
	ix.Insert(10, sigA)
	ix.Insert(20, sigC)
	got := ix.QuerySet(sigB)
	if !got[10] {
		t.Error("identical signature did not collide")
	}
	if got[20] {
		t.Error("unrelated signature collided in every band (suspicious)")
	}
	bag := ix.Query(sigB)
	// Identical signatures collide in all 4 bands.
	count := 0
	for _, it := range bag {
		if it == 10 {
			count++
		}
	}
	if count != 4 {
		t.Errorf("identical signature collided in %d bands, want 4", count)
	}
}

func TestIndexRemainderBandsIgnored(t *testing.T) {
	ix := NewIndex(30, 10)
	if ix.Bands() != 3 {
		t.Fatalf("bands = %d, want 3", ix.Bands())
	}
}

func TestNewIndexPanicsOnBadBand(t *testing.T) {
	for _, bad := range []struct{ p, b int }{{8, 0}, {4, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewIndex(%d,%d) did not panic", bad.p, bad.b)
				}
			}()
			NewIndex(bad.p, bad.b)
		}()
	}
}

func TestNumBuckets(t *testing.T) {
	ix := NewIndex(16, 8)
	m := NewMinHasher(16, 2)
	ix.Insert(1, m.Signature([]uint64{1}))
	ix.Insert(2, m.Signature([]uint64{2}))
	if ix.NumBuckets() == 0 {
		t.Error("no buckets after inserts")
	}
}

// Property: for random sets, higher true Jaccard implies (statistically)
// higher collision counts. Verified in aggregate over many pairs.
func TestBandingCollisionMonotonicity(t *testing.T) {
	m := NewMinHasher(32, 11)
	ix := NewIndex(32, 8)
	base := make([]uint64, 64)
	for i := range base {
		base[i] = uint64(i)
	}
	ix.Insert(1, m.Signature(base))

	// Overlapping set (J≈0.77) vs nearly disjoint (J≈0.015).
	similar := make([]uint64, 64)
	copy(similar, base)
	for i := 0; i < 8; i++ {
		similar[i] = uint64(1000 + i)
	}
	dissimilar := make([]uint64, 64)
	for i := range dissimilar {
		dissimilar[i] = uint64(5000 + i)
	}
	simHits, disHits := 0, 0
	for trial := 0; trial < 20; trial++ {
		m2 := NewMinHasher(32, int64(100+trial))
		ix2 := NewIndex(32, 8)
		ix2.Insert(1, m2.Signature(base))
		if len(ix2.Query(m2.Signature(similar))) > 0 {
			simHits++
		}
		if len(ix2.Query(m2.Signature(dissimilar))) > 0 {
			disHits++
		}
	}
	if simHits <= disHits {
		t.Errorf("similar sets collided %d times, dissimilar %d times", simHits, disHits)
	}
}

func BenchmarkMinHashSignature128(b *testing.B) {
	m := NewMinHasher(128, 1)
	shingles := make([]uint64, 200)
	for i := range shingles {
		shingles[i] = uint64(i * 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Signature(shingles)
	}
}

func BenchmarkHyperplaneSignature128(b *testing.B) {
	h := NewHyperplaneHasher(128, 48, 1)
	v := make(embedding.Vector, 48)
	for i := range v {
		v[i] = float32(i) * 0.1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Signature(v)
	}
}

func TestBucketsCancelled(t *testing.T) {
	ix := NewIndex(32, 8)
	m := NewMinHasher(32, 1)
	sig := m.Signature([]uint64{1, 2, 3})
	ix.Insert(10, sig)
	ix.Insert(20, m.Signature([]uint64{500, 600, 700}))

	full := ix.Buckets(context.Background(), sig, nil)
	// The identical signature collides in all four bands.
	if len(full) != 4 {
		t.Fatalf("background probe returned %d buckets, want 4", len(full))
	}
	for _, bucket := range full {
		if !slices.Contains(bucket, 10) {
			t.Fatalf("background probe bucket %v lost the collision", bucket)
		}
	}
	probes, scanned := ix.ProbeCounts()
	if probes != 4 || scanned < 4 {
		t.Fatalf("after one full probe ProbeCounts = (%d, %d), want 4 lookups", probes, scanned)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A dead context is checked before the first band lookup, so nothing
	// is looked up, returned or counted.
	if partial := ix.Buckets(ctx, sig, nil); len(partial) != 0 {
		t.Errorf("pre-cancelled probe returned %d buckets", len(partial))
	}
	if p, s := ix.ProbeCounts(); p != probes || s != scanned {
		t.Errorf("pre-cancelled probe moved ProbeCounts (%d, %d) → (%d, %d)", probes, scanned, p, s)
	}
}

// TestBucketsAppendsViewsWithoutAllocating pins the probe primitive's
// contract: colliding buckets are appended to dst as views, so a probe
// into a dst with room allocates nothing, and Query/QuerySet, the wrappers
// over it, see exactly the buckets' items.
func TestBucketsAppendsViewsWithoutAllocating(t *testing.T) {
	ix := NewIndex(30, 10)
	m := NewMinHasher(30, 3)
	sigs := make([][]uint32, 40)
	for i := range sigs {
		sigs[i] = m.Signature([]uint64{uint64(i % 5), uint64(i % 3)})
		ix.Insert(uint32(i), sigs[i])
	}
	dst := make([][]uint32, 0, ix.Bands())
	if allocs := testing.AllocsPerRun(50, func() { dst = ix.Buckets(context.Background(), sigs[7], dst[:0]) }); allocs != 0 {
		t.Errorf("Buckets into a dst with room allocated %v times a probe, want 0", allocs)
	}
	var bag []uint32
	for _, bucket := range dst {
		bag = append(bag, bucket...)
	}
	if got := ix.Query(sigs[7]); !slices.Equal(got, bag) {
		t.Errorf("Query = %v, buckets hold %v", got, bag)
	}
	set := ix.QuerySet(sigs[7])
	for _, it := range bag {
		if !set[it] {
			t.Errorf("QuerySet lost item %d", it)
		}
	}
	if len(set) > len(bag) {
		t.Errorf("QuerySet invented items: %d > %d", len(set), len(bag))
	}
}
