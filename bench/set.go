package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// runRecord is one run of a set: the result line of a child process.
type runRecord struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     int    `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics are those of the result line and, of an untraced run, the
	// judgedLayer metrics it printed.
	Metrics map[string]metricValue `json:"metrics"`
	// SpeedFactor is what the run's end-to-end times were scaled by;
	// dividing by it gives them back as measured.
	SpeedFactor float64 `json:"speed_factor"`
}

// runSetFile is what -workload all writes and -compare reads.
type runSetFile struct {
	Shape   shape       `json:"shape"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// runSet runs every workload of BENCHMARK.json repeat times with tracing
// off, on seeds o.seed, o.seed+1, ..., then once traced, each run in a
// fresh OS process so that heap, GC state and memoized column indexes of
// one run cannot reach the next. It writes the set to o.out and prints
// each judged metric's median and spread.
func runSet(spec *benchSpec, specPath string, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := runSetFile{Shape: machineShape(o.seed, buildCorpus(lakeSeed, lakeTables)), Seconds: o.seconds}
	child := func(workload string, seed int64, trace int) error {
		cmd := exec.Command(self, "-spec", specPath, "-workload", workload,
			"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace))
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		rec := runRecord{Workload: workload, Seed: seed, Trace: trace}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
			return fmt.Errorf("%s seed %d trace %d: no result line (%v): %w", workload, seed, trace, runErr, err)
		}
		for _, line := range lines {
			fmt.Sscanf(line, "speed_factor %g", &rec.SpeedFactor)
			var name, unit string
			var value float64
			if n, _ := fmt.Sscan(line, &name, &value, &unit); n == 3 && trace == 0 && isJudgedLayer(name) {
				rec.Metrics[name] = metricValue{value, unit}
			}
		}
		if trace == 1 {
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		}
		fmt.Fprintf(os.Stderr, "%s seed %d trace %d: correct=%v attempted=%d failed=%d\n",
			workload, seed, trace, rec.Correct, rec.Attempted, rec.Failed)
		set.Runs = append(set.Runs, rec)
		return nil
	}
	for rep := 0; rep < o.repeat; rep++ {
		for _, w := range spec.Workloads {
			if err := child(w.Name, o.seed+int64(rep), 0); err != nil {
				return err
			}
		}
	}
	for _, w := range spec.Workloads {
		if err := child(w.Name, o.seed, 1); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(o.out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("\n%-15s %-18s %12s %-5s %8s %6s %3s\n", "workload", "metric", "median", "unit", "spread", "bound", "n")
	incorrect := 0
	for _, w := range spec.Workloads {
		for _, def := range judged(spec) {
			if xs := set.values(w.Name, def.Name); len(xs) > 0 {
				fmt.Printf("%-15s %-18s %12.6g %-5s %8.4f %6.3f %3d\n", w.Name, def.Name, median(xs), def.Unit, spread(xs), def.Bound, len(xs))
			}
		}
	}
	for _, r := range set.Runs {
		if !r.Correct {
			incorrect++
		}
	}
	fmt.Printf("set written to %s\n", o.out)
	if incorrect > 0 {
		return fmt.Errorf("%d of %d runs were not correct", incorrect, len(set.Runs))
	}
	return nil
}

// judged lists the metrics -compare judges: every end-to-end metric, then
// the per-layer ones of judgedLayer, on the workloads that have them.
func judged(spec *benchSpec) []metricSpec {
	return append(append([]metricSpec(nil), spec.EndToEnd...), judgedLayer...)
}

func isJudgedLayer(name string) bool {
	for _, def := range judgedLayer {
		if def.Name == name {
			return true
		}
	}
	return false
}

// errorRate is the share of failed operations over a workload's runs.
func (s *runSetFile) errorRate(workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range s.Runs {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// values lists a metric's values over the untraced runs of a workload.
func (s *runSetFile) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(xs, n=4)
// gives (the exclusive method): the acceptance rule the benchmark is held
// to. Fewer than two values have no spread.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	if quartile(2) == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / quartile(2)
}

func readSet(path string) (*runSetFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSetFile
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// compareSets prints, per workload and judged metric, both medians, how
// much worse b is than a as a share of a, the bound, and a verdict:
// unresolved when either set's spread exceeds the bound, worse when b is
// worse than a by more than the bound, ok otherwise. error_rate is judged
// on the difference itself, over all of a workload's runs.
func compareSets(spec *benchSpec, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	if a.Shape.CorpusHash != b.Shape.CorpusHash {
		return fmt.Errorf("the sets ran on different lakes (%s, %s)", a.Shape.CorpusHash, b.Shape.CorpusHash)
	}
	fmt.Printf("%-15s %-18s %12s %12s %-5s %8s %8s %6s  %s\n", "workload", "metric", "a", "b", "unit", "worse_by", "spread", "bound", "verdict")
	worse := 0
	for _, w := range spec.Workloads {
		for _, def := range judged(spec) {
			xa, xb := a.values(w.Name, def.Name), b.values(w.Name, def.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			by := (mb - ma) / ma
			if def.Better == "higher" {
				by = -by
			}
			sp := max(spread(xa), spread(xb))
			verdict := "ok"
			switch {
			case sp > def.Bound:
				verdict = "unresolved"
			case by > def.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-15s %-18s %12.6g %12.6g %-5s %+8.4f %8.4f %6.3f  %s\n", w.Name, def.Name, ma, mb, def.Unit, by, sp, def.Bound, verdict)
		}
		ea, eb := a.errorRate(w.Name), b.errorRate(w.Name)
		verdict := "ok"
		if eb-ea > errorRateBound {
			verdict = "worse"
			worse++
		}
		fmt.Printf("%-15s %-18s %12.6g %12.6g %-5s %+8.4f %8s %6.3f  %s\n", w.Name, "error_rate", ea, eb, "ratio", eb-ea, "", errorRateBound, verdict)
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics are worse in %s by more than their bound", worse, pathB)
	}
	return nil
}
