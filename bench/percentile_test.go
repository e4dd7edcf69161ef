package main

import "testing"

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending: percentileOf must sort
	}
	return out
}

func TestNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := nearestRank(sorted, c.p); got != c.want {
			t.Errorf("nearestRank(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	// 1000 samples: p99 sits at rank 990, exactly ten samples beyond it.
	if p := percentileOf(seq(1000), 99); p.P != 99 || p.Value != 990 || p.N != 1000 {
		t.Errorf("n=1000 p99 = %+v", p)
	}
	// 999 samples: nine beyond p99, so it falls to p95 (rank 950, 49 beyond).
	if p := percentileOf(seq(999), 99); p.P != 95 || p.Value != 950 {
		t.Errorf("n=999 p99 = %+v, want fallback to p95", p)
	}
	// 24 samples (the old BENCH_throughput cells): p99 and p95 both refused;
	// p90 has rank 22 (2 beyond), p75 rank 18 (6 beyond) — only the median holds.
	if p := percentileOf(seq(24), 99); p.P != 50 || p.Value != 12 {
		t.Errorf("n=24 p99 = %+v, want fallback to p50", p)
	}
	if p := percentileOf(seq(24), 50); p.P != 50 || p.Asked != 50 {
		t.Errorf("n=24 p50 = %+v", p)
	}
	if p := percentileOf(nil, 99); p.N != 0 || p.Value != 0 {
		t.Errorf("empty sample = %+v", p)
	}
	in := seq(50)
	percentileOf(in, 95)
	if in[0] != 50 {
		t.Error("percentileOf reordered its input")
	}
}
