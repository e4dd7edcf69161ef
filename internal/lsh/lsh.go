// Package lsh implements the two locality-sensitive hashing schemes behind
// the paper's Locality-Sensitive Entity Index (Section 6): MinHash over
// shingle sets (for entity types) and random hyperplane projections (for
// entity embeddings), plus the banded bucket index both share.
//
// A signature of P values is split into P/B bands of size B; each band is
// hashed into its own group of buckets. Two items collide when any band
// hashes equally, so larger bands mean more selective (but lossier) lookups
// — exactly the (permutations/projections, band size) trade-off the paper
// sweeps as configurations (32,8), (128,8), and (30,10).
package lsh

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync/atomic"

	"thetis/internal/embedding"
	"thetis/internal/obs"
)

// Band-probe metrics, cached once (see internal/obs): every index in the
// process accumulates into the same counters.
var (
	mBandProbes   = obs.LSHBandProbesTotal()
	mItemsScanned = obs.LSHItemsScannedTotal()
)

// MinHasher computes MinHash signatures of shingle sets using one universal
// hash function per permutation: h_i(x) = (a_i·x + b_i) mod p with a large
// Mersenne prime p.
type MinHasher struct {
	a, b []uint64
}

const mersenne61 = (1 << 61) - 1

// NewMinHasher creates a hasher with the given number of permutations.
func NewMinHasher(permutations int, seed int64) *MinHasher {
	rng := rand.New(rand.NewSource(seed))
	m := &MinHasher{
		a: make([]uint64, permutations),
		b: make([]uint64, permutations),
	}
	for i := 0; i < permutations; i++ {
		m.a[i] = uint64(rng.Int63n(mersenne61-1)) + 1 // a != 0
		m.b[i] = uint64(rng.Int63n(mersenne61))
	}
	return m
}

// Permutations returns the signature length.
func (m *MinHasher) Permutations() int { return len(m.a) }

// Signature computes the MinHash signature of a shingle set. An empty set
// yields a signature of all-max values (colliding only with other empty
// sets).
func (m *MinHasher) Signature(shingles []uint64) []uint32 {
	sig := make([]uint32, len(m.a))
	for i := range sig {
		sig[i] = ^uint32(0)
	}
	for _, s := range shingles {
		x := mix64(s)
		for i := range m.a {
			h := mulmod61(m.a[i], x) + m.b[i]
			if h >= mersenne61 {
				h -= mersenne61
			}
			v := uint32(h ^ (h >> 32))
			if v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}

// mulmod61 multiplies two values modulo 2^61-1 without overflow, using
// 128-bit intermediate arithmetic via math/bits-style splitting.
func mulmod61(a, b uint64) uint64 {
	// Split a into high and low 32-bit halves: a = ah*2^32 + al.
	ah, al := a>>32, a&0xFFFFFFFF
	bh, bl := b>>32, b&0xFFFFFFFF
	// a*b = ah*bh*2^64 + (ah*bl + al*bh)*2^32 + al*bl (mod 2^61-1)
	// 2^61 ≡ 1, so 2^64 ≡ 8 and 2^32 parts are folded via shifts.
	hi := ah * bh
	mid := ah*bl + al*bh // may overflow; reduce each term
	lo := al * bl
	res := mod61(lo)
	res = mod61(res + mod61shift(mid, 32))
	res = mod61(res + mod61shift(hi, 64))
	return res
}

// mod61shift reduces x·2^s modulo 2^61-1.
func mod61shift(x uint64, s uint) uint64 {
	r := mod61(x)
	for s >= 61 {
		s -= 61 // 2^61 ≡ 1
	}
	// r·2^s may overflow 64 bits when s > 3; reduce in chunks of 30 bits.
	for s > 0 {
		chunk := s
		if chunk > 2 {
			chunk = 2
		}
		r = mod61(r << chunk)
		s -= chunk
	}
	return r
}

func mod61(x uint64) uint64 {
	x = (x >> 61) + (x & mersenne61)
	if x >= mersenne61 {
		x -= mersenne61
	}
	return x
}

// mix64 is SplitMix64's finalizer, decorrelating raw shingle values.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HyperplaneHasher computes bit signatures of embedding vectors by random
// projections: bit i is 1 iff the dot product with projection vector i is
// positive.
type HyperplaneHasher struct {
	dim    int
	planes [][]float32 // projections × dim, standard normal entries
}

// NewHyperplaneHasher creates a hasher with the given number of projection
// vectors for embeddings of dimensionality dim.
func NewHyperplaneHasher(projections, dim int, seed int64) *HyperplaneHasher {
	rng := rand.New(rand.NewSource(seed))
	h := &HyperplaneHasher{dim: dim, planes: make([][]float32, projections)}
	for i := range h.planes {
		p := make([]float32, dim)
		for j := range p {
			p[j] = float32(rng.NormFloat64())
		}
		h.planes[i] = p
	}
	return h
}

// Projections returns the signature length.
func (h *HyperplaneHasher) Projections() int { return len(h.planes) }

// Dim returns the expected vector dimensionality.
func (h *HyperplaneHasher) Dim() int { return h.dim }

// Signature computes the bit signature of v (one uint32 per bit: 0 or 1,
// matching the banded index's value-based band hashing).
func (h *HyperplaneHasher) Signature(v embedding.Vector) []uint32 {
	sig := make([]uint32, len(h.planes))
	for i, p := range h.planes {
		var dot float64
		for j := 0; j < h.dim && j < len(v); j++ {
			dot += float64(p[j]) * float64(v[j])
		}
		if dot > 0 {
			sig[i] = 1
		}
	}
	return sig
}

// Index is a banded LSH bucket index over uint32 item IDs. It is safe for
// concurrent queries; Insert/Remove mutate the bucket maps and must be
// serialized against queries by the caller (thetis.System holds its write
// lock across mutations). Queries maintain cumulative probe counters
// (band-bucket lookups performed and items scanned), readable via
// ProbeCounts and mirrored on /metrics.
type Index struct {
	bandSize int
	bands    int
	buckets  []map[uint64][]uint32 // one bucket map per band group

	probes  atomic.Int64 // band-bucket lookups across all queries
	scanned atomic.Int64 // items read out of colliding buckets
	items   int          // signatures inserted
}

// NewIndex creates an index for signatures of length permutations, divided
// into bands of bandSize values. The trailing remainder of a signature that
// does not fill a whole band is ignored, mirroring the (30,10) setup where
// 30 values form exactly 3 bands. It panics on out-of-range parameters;
// code handling untrusted configuration (CLI flags, snapshot headers)
// should use NewIndexChecked instead.
func NewIndex(permutations, bandSize int) *Index {
	ix, err := NewIndexChecked(permutations, bandSize)
	if err != nil {
		panic(err.Error())
	}
	return ix
}

// NewIndexChecked is NewIndex returning an error instead of panicking when
// the band size is outside [1, permutations] — the validating constructor
// for parameters derived from flags or deserialized headers.
func NewIndexChecked(permutations, bandSize int) (*Index, error) {
	if bandSize <= 0 || permutations < bandSize {
		return nil, fmt.Errorf("lsh: band size must be in [1, permutations]: got permutations=%d bandSize=%d",
			permutations, bandSize)
	}
	bands := permutations / bandSize
	ix := &Index{bandSize: bandSize, bands: bands, buckets: make([]map[uint64][]uint32, bands)}
	for i := range ix.buckets {
		ix.buckets[i] = make(map[uint64][]uint32)
	}
	return ix, nil
}

// Bands returns the number of band groups.
func (ix *Index) Bands() int { return ix.bands }

// bandHash hashes one band of a signature together with the band number, so
// identical values in different bands land in different bucket groups.
func bandHash(sig []uint32, band, bandSize int) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(band))
	h.Write(buf[:])
	for _, v := range sig[band*bandSize : (band+1)*bandSize] {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Insert adds an item with the given signature to every band group.
func (ix *Index) Insert(item uint32, sig []uint32) {
	ix.items++
	for b := 0; b < ix.bands; b++ {
		key := bandHash(sig, b, ix.bandSize)
		ix.buckets[b][key] = append(ix.buckets[b][key], item)
	}
}

// Remove deletes an item previously Inserted under the same signature,
// reporting whether it was found in any band. A band bucket emptied by the
// removal is deleted from its map rather than left as a zero-length entry —
// NumBuckets and the probe counters in Stats.Trace must look exactly like
// an index that never held the item. Like Insert, Remove must not run
// concurrently with queries.
func (ix *Index) Remove(item uint32, sig []uint32) bool {
	removed := false
	for b := 0; b < ix.bands; b++ {
		key := bandHash(sig, b, ix.bandSize)
		items := ix.buckets[b][key]
		for i, it := range items {
			if it == item {
				items = append(items[:i], items[i+1:]...)
				removed = true
				break
			}
		}
		if len(items) == 0 {
			delete(ix.buckets[b], key)
		} else {
			ix.buckets[b][key] = items
		}
	}
	if removed {
		ix.items--
	}
	return removed
}

// Buckets is the one probe primitive: it appends to dst every non-empty
// band bucket the signature hashes into, one per colliding band, and
// returns the extended slice. The buckets are read-only views into the
// index — nothing is copied, and with a dst of sufficient capacity nothing
// is allocated — valid until the next Insert or Remove. An item colliding
// in several bands appears in several buckets; deduplicating is the
// caller's business. A dead context stops the probe between bands and
// returns the buckets gathered so far; background contexts skip the check.
func (ix *Index) Buckets(ctx context.Context, sig []uint32, dst [][]uint32) [][]uint32 {
	scanned := 0
	done := ctx.Done()
	for b := 0; b < ix.bands; b++ {
		if done != nil {
			select {
			case <-done:
				ix.countProbe(b, scanned)
				return dst
			default:
			}
		}
		bucket := ix.buckets[b][bandHash(sig, b, ix.bandSize)]
		scanned += len(bucket)
		if len(bucket) > 0 {
			dst = append(dst, bucket)
		}
	}
	ix.countProbe(ix.bands, scanned)
	return dst
}

// Query returns the bag of items sharing at least one bucket with the
// signature. Items colliding in multiple bands appear multiple times; use
// QuerySet for deduplicated results.
func (ix *Index) Query(sig []uint32) []uint32 {
	var out []uint32
	for _, bucket := range ix.Buckets(context.Background(), sig, nil) {
		out = append(out, bucket...)
	}
	return out
}

// QuerySet returns the deduplicated set of items colliding with the
// signature.
func (ix *Index) QuerySet(sig []uint32) map[uint32]bool {
	set := make(map[uint32]bool)
	for _, bucket := range ix.Buckets(context.Background(), sig, nil) {
		for _, it := range bucket {
			set[it] = true
		}
	}
	return set
}

// countProbe records one signature probe: the band-bucket lookups it
// actually performed and the bucket entries they held.
func (ix *Index) countProbe(looked, scanned int) {
	ix.probes.Add(int64(looked))
	ix.scanned.Add(int64(scanned))
	mBandProbes.Add(int64(looked))
	mItemsScanned.Add(int64(scanned))
}

// ProbeCounts returns this index's cumulative band-bucket lookups performed
// and bucket entries scanned across all queries since construction.
func (ix *Index) ProbeCounts() (probes, scanned int64) {
	return ix.probes.Load(), ix.scanned.Load()
}

// NumItems returns how many signatures have been inserted — per-shard
// index sizes for spotting partitioning imbalance.
func (ix *Index) NumItems() int { return ix.items }

// NumBuckets returns the total number of non-empty buckets across bands.
func (ix *Index) NumBuckets() int {
	n := 0
	for _, m := range ix.buckets {
		n += len(m)
	}
	return n
}
