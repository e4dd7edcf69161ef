package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json: the one list of workloads, metrics, units
// and bounds. The program reads it rather than repeating it.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// judgedLayer are the per-layer metrics a set records with every untraced
// run and -compare judges like end-to-end ones. They are what a user of
// live_mixed sees of its writes, but BENCHMARK.json can list them only as
// per-layer, where an entry has no bound: an end-to-end metric has to exist,
// and not be 0, on every workload. So their bounds are here.
var judgedLayer = []metricSpec{
	{Name: "live.write_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "live.write_ms_p95", Unit: "ms", Better: "lower", Bound: 0.15},
}

// errorRateBound is by how much, in absolute terms, a set's share of
// failed operations on a workload may exceed the other set's.
const errorRateBound = 0.001

// loadSpec reads BENCHMARK.json from path, or from the working directory
// or its parent (the benchmark's own directory is one level down).
func loadSpec(path string) (*benchSpec, string, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	var data []byte
	var err error
	for _, p := range candidates {
		if data, err = os.ReadFile(p); err == nil {
			path = p
			break
		}
	}
	if err != nil {
		return nil, "", fmt.Errorf("read BENCHMARK.json: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.Paths) == 0 || spec.RunSeconds <= 0 {
		return nil, "", fmt.Errorf("%s: paths and run_seconds are required", path)
	}
	return &spec, path, nil
}
