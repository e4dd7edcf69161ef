// Command bench is the benchmark of this repository: it generates one
// fixed lake, drives Thetis through four workloads that each load a
// different layer, checks every ranking, and prints every metric named in
// BENCHMARK.json. See README.md in this directory.
//
// One run of one workload (what BENCHMARK.json's command does):
//
//	bash bench/run.sh --workload lsei_http --seed 1 --seconds 20 --trace 0
//
// A set of runs over all workloads, and the comparison of two sets:
//
//	bash bench/run.sh --workload all --repeat 10 --out bench/out/a.json
//	bash bench/run.sh --compare bench/out/a.json bench/out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// options are the command line.
type options struct {
	spec     string
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	out      string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.spec, "spec", "", "path of BENCHMARK.json (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 42, "seed of the load schedule: query order and the tables live_mixed adds")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, wrappers off; 1: per-layer metrics from a traced pass")
	flag.IntVar(&o.repeat, "repeat", 1, "with -workload all: untraced runs per workload, on seeds seed, seed+1, ...")
	flag.StringVar(&o.out, "out", "", "with -workload all: file the set of runs is written to (default <paths[0]>/out/set.json)")
	flag.BoolVar(&o.compare, "compare", false, "compare two sets of runs: -compare a.json b.json")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	spec, specPath, err := loadSpec(o.spec)
	if err != nil {
		return err
	}
	outDir := filepath.Join(filepath.Dir(specPath), spec.Paths[0], "out")
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	switch {
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two files written by -workload all")
		}
		return compareSets(spec, args[0], args[1])
	case o.workload == "all":
		if o.out == "" {
			o.out = filepath.Join(outDir, "set.json")
		}
		return runSet(spec, specPath, o)
	}

	c := buildCorpus(lakeSeed, lakeTables)
	res, err := runWorkload(runConfig{
		workload: o.workload, seed: o.seed, seconds: o.seconds, trace: o.trace == 1,
		setupReps: 9, calibRuns: 32, outDir: outDir,
	}, c)
	if err != nil {
		return err
	}
	line, err := report(os.Stdout, spec, machineShape(o.seed, c), o.workload, o.trace == 1, res)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", o.workload, res.Failed, res.Attempted)
	}
	return nil
}

// shape is the machine and input a run was made on, printed with every
// run and stored in every set.
type shape struct {
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	VCSRevision string `json:"vcs_revision"`
	Seed        int64  `json:"seed"`
	LakeSeed    int64  `json:"lake_seed"`
	CorpusHash  string `json:"corpus_hash"`
}

func machineShape(seed int64, c *corpus) shape {
	s := shape{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, VCSRevision: "unknown",
		Seed: seed, LakeSeed: c.seed, CorpusHash: c.hash,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				s.VCSRevision = kv.Value
			}
		}
	}
	return s
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report writes the run to w for a reader, one row per metric the run
// measured: a layer that is not on the workload's path has none, and a set
// reads the judged per-layer metrics back from these rows. It returns the
// contract's result line: with trace off every end-to-end metric, with trace
// on every per-layer metric. The contract wants every name there on every
// workload, so a per-layer metric that was not measured reads 0 in the line.
// A metric the run measured that BENCHMARK.json does not name, or an
// end-to-end metric it failed to measure, is an error.
func report(w io.Writer, spec *benchSpec, sh shape, workload string, traced bool, res *result) (string, error) {
	units := map[string]string{}
	for _, def := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		units[def.Name] = def.Unit
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		if _, ok := units[name]; !ok {
			return "", fmt.Errorf("metric %s is not named in BENCHMARK.json", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	wanted := spec.EndToEnd
	if traced {
		wanted = spec.PerLayer
	}
	out := map[string]metricValue{}
	for _, def := range wanted {
		v, ok := res.Metrics[def.Name]
		if !ok && !traced {
			return "", fmt.Errorf("end-to-end metric %s was not measured", def.Name)
		}
		out[def.Name] = metricValue{v, def.Unit}
	}

	header, _ := json.Marshal(sh)
	fmt.Fprintf(w, "workload %s  trace %v  %s\n", workload, traced, header)
	fmt.Fprintf(w, "schedule %s  clients %d\n", res.scheduleHash, res.maxClients)
	scaled := "times below are as measured"
	if !traced {
		scaled = "latency_*, live.write_*, setup_s (x) and throughput_qps (/) below are measured values scaled by it to a reference-speed host"
	}
	fmt.Fprintf(w, "speed_factor %.6g  spin_us %.1f  chase_us %.1f  (%s)\n", res.speed.factor,
		float64(res.speed.spinD)/1e3, float64(res.speed.chaseD)/1e3, scaled)
	if res.mutations > 0 {
		fmt.Fprintf(w, "mutations %d, delta log flush policy: one fsync per mutation, before it is applied\n", res.mutations)
	}
	for _, name := range names {
		detail := ""
		if p, ok := res.percentiles[name]; ok {
			detail = "  " + p.detail()
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s%s\n", name, res.Metrics[name], units[name], detail)
	}
	for i, note := range res.notes {
		if i == 10 {
			fmt.Fprintf(w, "  ... and %d more\n", len(res.notes)-i)
			break
		}
		fmt.Fprintln(w, "  FAILED:", note)
	}
	line, err := json.Marshal(struct {
		*result
		Metrics map[string]metricValue `json:"metrics"`
	}{res, out})
	return string(line), err
}
