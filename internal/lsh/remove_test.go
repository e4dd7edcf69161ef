package lsh

import (
	"math/rand"
	"testing"
)

// randomSig builds a deterministic pseudo-random signature of length n.
func randomSig(rng *rand.Rand, n int) []uint32 {
	sig := make([]uint32, n)
	for i := range sig {
		sig[i] = rng.Uint32()
	}
	return sig
}

// TestRemoveDeletesEmptiedBuckets pins the empty-bucket regression: after
// add→remove→add cycles, bucket counts and probe counters must look exactly
// like an index that never held the removed items. A zero-length bucket left
// behind by Remove would inflate NumBuckets and band-probe bookkeeping.
func TestRemoveDeletesEmptiedBuckets(t *testing.T) {
	const perms, bandSize = 30, 10
	rng := rand.New(rand.NewSource(1))
	sigs := make([][]uint32, 50)
	for i := range sigs {
		sigs[i] = randomSig(rng, perms)
	}

	// Reference: an index that only ever held the even items.
	ref := NewIndex(perms, bandSize)
	for i := 0; i < len(sigs); i += 2 {
		ref.Insert(uint32(i), sigs[i])
	}

	// Subject: insert everything, remove the odd items again.
	ix := NewIndex(perms, bandSize)
	for i := range sigs {
		ix.Insert(uint32(i), sigs[i])
	}
	for i := 1; i < len(sigs); i += 2 {
		if !ix.Remove(uint32(i), sigs[i]) {
			t.Fatalf("Remove(%d) found nothing", i)
		}
	}

	if got, want := ix.NumItems(), ref.NumItems(); got != want {
		t.Fatalf("NumItems = %d after removals, want %d", got, want)
	}
	if got, want := ix.NumBuckets(), ref.NumBuckets(); got != want {
		t.Fatalf("NumBuckets = %d after removals, want %d (emptied buckets must be deleted)", got, want)
	}

	// Probe-count equivalence: querying both indexes with every signature
	// must scan the same number of bucket entries — removed items may not
	// linger in any bucket.
	var gotProbes, gotScanned, wantProbes, wantScanned int64
	for i, sig := range sigs {
		p0, s0 := probeCounts()
		a := collisionSet(ix, sig)
		p1, s1 := probeCounts()
		b := collisionSet(ref, sig)
		p2, s2 := probeCounts()
		gotProbes, gotScanned = gotProbes+p1-p0, gotScanned+s1-s0
		wantProbes, wantScanned = wantProbes+p2-p1, wantScanned+s2-s1
		if len(a) != len(b) {
			t.Fatalf("sig %d: collision set size %d, reference %d", i, len(a), len(b))
		}
		for it := range b {
			if !a[it] {
				t.Fatalf("sig %d: reference collides with %d, subject does not", i, it)
			}
		}
	}
	if gotProbes != wantProbes || gotScanned != wantScanned {
		t.Fatalf("probe counters (%d probes, %d scanned) diverge from never-held reference (%d, %d)",
			gotProbes, gotScanned, wantProbes, wantScanned)
	}

	// Re-adding a removed item restores its collisions exactly.
	ix.Remove(0, sigs[0])
	ix.Insert(0, sigs[0])
	if got := collisionSet(ix, sigs[0]); !got[0] {
		t.Fatal("re-added item no longer collides with its own signature")
	}
	if got, want := ix.NumBuckets(), ref.NumBuckets(); got != want {
		t.Fatalf("NumBuckets = %d after remove→re-add, want %d", got, want)
	}
}

// TestRemoveUnknownItem checks Remove's found-report and that removing an
// absent item leaves the index untouched.
func TestRemoveUnknownItem(t *testing.T) {
	ix := NewIndex(30, 10)
	rng := rand.New(rand.NewSource(2))
	sig := randomSig(rng, 30)
	other := randomSig(rng, 30)
	ix.Insert(7, sig)
	if ix.Remove(7, other) {
		t.Fatal("Remove under a different signature claims success")
	}
	if !collisionSet(ix, sig)[7] {
		t.Fatal("failed Remove damaged the stored item")
	}
	if ix.Remove(8, sig) {
		t.Fatal("Remove of an item never inserted claims success")
	}
	if !ix.Remove(7, sig) {
		t.Fatal("Remove under the original signature failed")
	}
	if ix.NumItems() != 0 || ix.NumBuckets() != 0 {
		t.Fatalf("index not empty after final removal: items=%d buckets=%d", ix.NumItems(), ix.NumBuckets())
	}
}
