package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 over 300 requests is one of the three worst samples, not
// a percentile.
const minBeyond = 10

// ladder lists the percentiles a request may fall back through, highest
// first. The median ends it and is never refused.
var ladder = []float64{99, 95, 90, 75, 50}

// percentile is a nearest-rank percentile together with the sample count
// behind it and the percentile that was asked for.
type percentile struct {
	Asked float64 // the percentile requested
	P     float64 // the percentile reported: Asked, or the next lower rung with enough samples
	Value float64
	N     int
}

// detail says how far the value can be trusted: the sample count, and
// the fallback when the asked percentile had too few samples beyond it.
func (p percentile) detail() string {
	if p.P != p.Asked {
		return fmt.Sprintf("(n=%d: p%g refused, this is p%g)", p.N, p.Asked, p.P)
	}
	return fmt.Sprintf("(n=%d)", p.N)
}

// nearestRank returns the p-th percentile (0 < p <= 100) of an ascending
// sample by the nearest-rank rule: the value at rank ceil(p/100 * n).
func nearestRank(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// percentileOf reports the p-th percentile of sample (p is a rung of the
// ladder), falling back down the ladder until at least minBeyond samples
// lie beyond the reported rank. The sample is not modified.
func percentileOf(sample []float64, p float64) percentile {
	out := percentile{Asked: p, N: len(sample)}
	if len(sample) == 0 {
		return out
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	out.P = ladder[len(ladder)-1]
	for _, rung := range ladder {
		rank := int(math.Ceil(rung / 100 * float64(len(sorted))))
		if rung <= p && len(sorted)-rank >= minBeyond {
			out.P = rung
			break
		}
	}
	out.Value = nearestRank(sorted, out.P)
	return out
}

// millis converts durations to milliseconds for percentileOf.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// median is the conventional median (the mean of the middle two of an
// even count), for summarising a handful of repeated measurements: set-up
// repetitions, the runs of a set.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return (sorted[(n-1)/2] + sorted[n/2]) / 2
}
