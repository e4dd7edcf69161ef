package main

import (
	"encoding/json"
	"io"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"thetis/internal/core"
)

// TestSmoke runs every workload of BENCHMARK.json in both trace modes on a
// small lake with short windows and checks the contract's shape: the
// result names exactly the metrics and workloads BENCHMARK.json names, the
// rankings verify, and the load generator stays within the CPU count.
func TestSmoke(t *testing.T) {
	spec, _, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, defs := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, def := range defs {
			if !name.MatchString(def.Name) || seen[def.Name] {
				t.Errorf("metric name %q is malformed or used twice", def.Name)
			}
			seen[def.Name] = true
		}
	}

	c := buildCorpus(42, 200)
	for _, ws := range spec.Workloads {
		if !name.MatchString(ws.Name) {
			t.Errorf("workload name %q is malformed", ws.Name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runConfig{
				workload: ws.Name, seed: 7, seconds: 0.3, trace: traced, setupReps: 2, calibRuns: 2, outDir: t.TempDir(),
			}, c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", ws.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", ws.Name, traced, res.Correct, res.Attempted, res.Failed, res.notes)
			}
			// A layer that is not on a workload's path is not measured there.
			for metric := range res.Metrics {
				layer, _, _ := strings.Cut(metric, ".")
				switch {
				case (layer == "shard" || layer == "remote" || layer == "merge") && ws.Name != "scatter_remote",
					(layer == "live" || layer == "atomicio") && ws.Name != "live_mixed",
					layer == "server" && ws.Name != "lsei_http":
					t.Errorf("%s trace=%v: measured %s, a layer that is not on its path", ws.Name, traced, metric)
				}
			}
			if _, ok := res.Metrics["live.write_ms_p95"]; ok != (ws.Name == "live_mixed") {
				t.Errorf("%s trace=%v: write latencies measured: %v", ws.Name, traced, ok)
			}
			if res.maxClients > runtime.NumCPU() {
				t.Errorf("%s: %d client goroutines on %d CPUs", ws.Name, res.maxClients, runtime.NumCPU())
			}
			// report fails on a metric BENCHMARK.json does not name and on
			// an end-to-end metric that was not measured.
			line, err := report(io.Discard, spec, machineShape(7, c), ws.Name, traced, res)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", ws.Name, traced, err)
			}
			var got struct {
				Correct   *bool                  `json:"correct"`
				Attempted *int                   `json:"attempted"`
				Failed    *int                   `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &got); err != nil || got.Correct == nil || got.Attempted == nil || got.Failed == nil {
				t.Fatalf("%s: result line %q: %v", ws.Name, line, err)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json names %d", ws.Name, traced, len(got.Metrics), len(want))
			}
			for _, def := range want {
				v, ok := got.Metrics[def.Name]
				if !ok || v.Unit != def.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q, want %q", ws.Name, traced, def.Name, v.Unit, def.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", ws.Name, def.Name, v.Value)
				}
			}
		}
	}
}

// TestSeeds pins what a seed decides: the lake depends on the lake seed
// alone, the query order and the mutation stream on the run's seed.
func TestSeeds(t *testing.T) {
	a, b := buildCorpus(42, 120), buildCorpus(42, 120)
	if a.hash != b.hash {
		t.Errorf("same lake seed, corpus hashes %s and %s", a.hash, b.hash)
	}
	if other := buildCorpus(43, 120); other.hash == a.hash {
		t.Error("another lake seed gave the same corpus hash")
	}
	s1, s2, s3 := newSchedule(a, 7, 3, true), newSchedule(b, 7, 3, true), newSchedule(a, 8, 3, true)
	if s1.hash != s2.hash {
		t.Errorf("same seed, schedule hashes %s and %s", s1.hash, s2.hash)
	}
	if s1.hash == s3.hash {
		t.Error("another seed gave the same query order and mutation stream")
	}
	counts := map[int]int{}
	for _, qi := range s1.order[:4*topics] {
		counts[qi]++
	}
	for qi := 0; qi < topics; qi++ {
		if counts[qi] != 3 || counts[topics+qi] != 1 {
			t.Fatalf("a cycle holds topic %d %d times as 1-tuple and %d times as 5-tuple, want 3 and 1", qi, counts[qi], counts[topics+qi])
		}
	}
}

// TestAfterHook pins that what a client does between two searches (on
// live_mixed, waiting to hand a mutation over) is in no search's latency.
func TestAfterHook(t *testing.T) {
	const wait = 5 * time.Millisecond
	g := &loadgen{order: []int{0}}
	search := func(int, int64) ([]core.Result, error) { return nil, nil }
	lr := g.run(1, 50*time.Millisecond, search, nil, func() { time.Sleep(wait) })
	if len(lr.handoffs) == 0 || len(lr.handoffs) != len(lr.latencies) {
		t.Fatalf("%d hooks timed for %d searches", len(lr.handoffs), len(lr.latencies))
	}
	for i, d := range lr.latencies {
		if d >= wait || lr.handoffs[i] < wait {
			t.Fatalf("search %d: latency %v, hook %v: the hook's %v belong to the hook", i, d, lr.handoffs[i], wait)
		}
	}
	for _, gap := range lr.gaps {
		if gap >= wait {
			t.Fatalf("gap of %v holds the hook's %v", gap, wait)
		}
	}
}
