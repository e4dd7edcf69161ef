package main

import (
	"math"
	"math/rand"
	"time"
)

// The host this benchmark runs on is shared, and its speed moves by more
// than any bound: over seconds by 10 %, and for minutes at a time by 25-35 %
// when neighbours press on the shared cache and memory, while the guest
// sees no steal time. Ten 24-second runs of one workload, times as
// measured, spread (interquartile range / median) up to 0.19 on p50 and
// 0.27 on p99 (README), so no bound the contract allows would hold. What
// moves is every time-based metric of every workload together. So the
// end-to-end times are reported in milliseconds of a reference-speed host:
// measured time times a speed factor taken from two fixed kernels that are
// timed, with no load running, before the measured window, after it and at
// every slice boundary inside it. The kernels share nothing with the
// repository's code, so a change to the repository cannot move them.
//
// spin is a dependent chain of multiplies and loads over a 256 KiB table:
// it follows the core clock. chase is a dependent chain of loads along one
// random cycle through a 16 MiB table, which lives in the shared cache and
// memory: it follows what the neighbours leave of them. The factor is the
// geometric mean of the two kernels' speeds relative to the reference box.
// Nothing in it is fitted to a workload: a host that is slower by the same
// share everywhere is corrected by exactly that share, and one that is
// slower in memory alone by half of it.

const (
	spinIters  = 100_000
	chaseSteps = 20_000
	chaseWords = 16 << 20 / 4
	// Durations of the kernels on the reference box (2 vCPU, go1.24,
	// linux/amd64) in its quiet state. They only fix the unit.
	refSpin  = 560 * time.Microsecond
	refChase = 1800 * time.Microsecond
)

var spinTable = func() (t [1 << 15]uint64) {
	x := uint64(42)
	for i := range t {
		x = x*6364136223846793005 + 1442695040888963407
		t[i] = x
	}
	return t
}()

// spin runs the compute kernel once.
func spin() time.Duration {
	start := time.Now()
	x := uint64(start.UnixNano()) | 1
	for i := 0; i < spinIters; i++ {
		x = x*6364136223846793005 + spinTable[x>>49]
	}
	d := time.Since(start)
	sink = x
	return d
}

// calibrator samples the two kernels around measurements and turns the
// samples into the factor measured times are multiplied by.
type calibrator struct {
	runs          int       // runs of each kernel per sample
	table         []uint32  // one cycle through all of its indices
	at            uint32    // where the last chase stopped
	spins, chases []float64 // one median per sample, ns
}

func newCalibrator(runs int) *calibrator {
	// Sattolo's shuffle: a random permutation that is a single cycle, so a
	// chase never falls into a short loop that fits a private cache.
	t := make([]uint32, chaseWords)
	for i := range t {
		t[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(t) - 1; i > 0; i-- {
		j := rng.Intn(i)
		t[i], t[j] = t[j], t[i]
	}
	return &calibrator{runs: runs, table: t}
}

// chase runs the memory kernel once, from where the last run stopped.
func (c *calibrator) chase() time.Duration {
	start := time.Now()
	x := c.at
	for i := 0; i < chaseSteps; i++ {
		x = c.table[x]
	}
	d := time.Since(start)
	c.at = x
	return d
}

// sample times both kernels on the calling goroutine, to be called while no
// load is running, and keeps the median of each.
func (c *calibrator) sample() {
	spins, chases := make([]float64, c.runs), make([]float64, c.runs)
	for i := range spins {
		spins[i] = float64(spin())
		chases[i] = float64(c.chase())
	}
	c.spins = append(c.spins, median(spins))
	c.chases = append(c.chases, median(chases))
}

// speed is what the kernels measured around one measurement.
type speed struct {
	factor        float64       // what measured times are multiplied by: below 1 when the host ran slower than the reference
	spinD, chaseD time.Duration // the kernels' mean durations, for the reader
}

// speed summarises the samples taken so far and forgets them, so the next
// measurement starts afresh.
func (c *calibrator) speed() speed {
	s, ch := mean(c.spins), mean(c.chases)
	c.spins, c.chases = c.spins[:0], c.chases[:0]
	return speed{math.Sqrt(float64(refSpin) / s * float64(refChase) / ch), time.Duration(s), time.Duration(ch)}
}
