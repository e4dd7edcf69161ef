package core

import (
	"math"
	"sync/atomic"
)

// scoreFloor is a top-k search's running k-th best score, shared by its
// scoring workers: the bits of a float64 ≥ 0, which order as the floats do.
// It starts at 0 and only rises, and once it is positive k tables are known
// to score at least that much.
type scoreFloor struct{ bits atomic.Uint64 }

// load returns the floor; a nil floor (a search that keeps every table) is 0.
func (f *scoreFloor) load() float64 {
	if f == nil {
		return 0
	}
	return math.Float64frombits(f.bits.Load())
}

// raise lifts the floor to score unless another worker has it higher already.
func (f *scoreFloor) raise(score float64) {
	bits := math.Float64bits(score)
	for old := f.bits.Load(); bits > old; old = f.bits.Load() {
		if f.bits.CompareAndSwap(old, bits) {
			return
		}
	}
}

// kBest holds the k largest scores one worker has produced: a plain slice
// while it fills, a min-heap from the k-th score on.
type kBest struct {
	k      int
	scores []float64
}

// offer adds a positive score and reports the k-th largest so far, or 0
// while fewer than k have been offered.
func (b *kBest) offer(score float64) float64 {
	h := b.scores
	switch {
	case len(h) < b.k:
		h = append(h, score)
		b.scores = h
		if len(h) < b.k {
			return 0
		}
		for i := len(h)/2 - 1; i >= 0; i-- {
			siftDown(h, i)
		}
	case score > h[0]:
		h[0] = score
		siftDown(h, 0)
	}
	return h[0]
}

// siftDown restores the min-heap order of h below position i.
func siftDown(h []float64, i int) {
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if h[c] < h[least] {
				least = c
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
