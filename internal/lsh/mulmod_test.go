package lsh

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestMulmod61MatchesBig checks mulmod61 against math/big on random pairs
// over the whole 64-bit range, on the MinHasher's own operand shape (a
// below the prime, x a mixed 64-bit shingle) and on the extremes, where a
// product split into 32-bit halves overflows its middle term.
func TestMulmod61MatchesBig(t *testing.T) {
	p := new(big.Int).SetUint64(mersenne61)
	want := func(a, b uint64) uint64 {
		z := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		return z.Mod(z, p).Uint64()
	}
	check := func(a, b uint64) {
		t.Helper()
		if got, w := mulmod61(a, b), want(a, b); got != w {
			t.Fatalf("mulmod61(%#x, %#x) = %#x, want %#x", a, b, got, w)
		}
	}
	edges := []uint64{0, 1, 2, mersenne61 - 1, mersenne61, mersenne61 + 1, 1 << 61, 1<<63 - 1, 1 << 63, math.MaxUint64}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 100000 {
		check(rng.Uint64(), rng.Uint64())
		check(uint64(rng.Int63n(mersenne61-1))+1, mix64(rng.Uint64()))
	}
}

// TestMinHashSignatureIsUniversalHash checks the formula MinHasher promises:
// signature slot i is the minimum over shingles s of (a_i·x + b_i) mod p,
// x = mix64(s), folded to 32 bits.
func TestMinHashSignatureIsUniversalHash(t *testing.T) {
	m := NewMinHasher(16, 3)
	p := new(big.Int).SetUint64(mersenne61)
	rng := rand.New(rand.NewSource(2))
	for range 200 {
		shingles := make([]uint64, 1+rng.Intn(8))
		for i := range shingles {
			shingles[i] = rng.Uint64()
		}
		sig := m.Signature(shingles)
		for i := range sig {
			want := ^uint32(0)
			for _, s := range shingles {
				h := new(big.Int).Mul(new(big.Int).SetUint64(m.a[i]), new(big.Int).SetUint64(mix64(s)))
				h.Add(h, new(big.Int).SetUint64(m.b[i]))
				v := h.Mod(h, p).Uint64()
				want = min(want, uint32(v^(v>>32)))
			}
			if sig[i] != want {
				t.Fatalf("slot %d of %v: %#x, want %#x", i, shingles, sig[i], want)
			}
		}
	}
}
