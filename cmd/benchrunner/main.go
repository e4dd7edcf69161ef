// Command benchrunner regenerates the paper's evaluation artifacts (Tables
// 2–4, Figures 4–6, and the in-prose ablations of Section 7) over a
// synthetic semantic-data-lake benchmark, printing the same rows and series
// the paper reports.
//
// Usage:
//
//	benchrunner                      # run every experiment at default scale
//	benchrunner -exp fig4            # run one experiment
//	benchrunner -tables 20000 -queries 50   # approach the paper's scale
//	benchrunner -list                # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"thetis/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchrunner: ")

	exp := flag.String("exp", "all", "experiment ID or 'all'")
	tables := flag.Int("tables", 0, "corpus size (0 = default)")
	queries := flag.Int("queries", 0, "number of benchmark queries (0 = default)")
	small := flag.Bool("small", false, "use the fast test-scale environment")
	bench := flag.String("bench", "", "load a datagen benchmark directory instead of generating")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.ExperimentIDs(), "\n"))
		return
	}

	cfg := experiments.DefaultConfig()
	if *small {
		cfg = experiments.SmallConfig()
	}
	if *tables > 0 {
		cfg.Tables = *tables
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}

	start := time.Now()
	var env *experiments.Env
	if *bench != "" {
		var err error
		env, err = experiments.NewEnvFromBenchmark(*bench, cfg, os.Stderr)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		env = experiments.NewEnv(cfg, os.Stderr)
	}

	if *exp == "all" {
		experiments.RunAll(env, os.Stdout)
	} else if err := experiments.Run(env, *exp, os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "total: %v\n", time.Since(start).Round(time.Millisecond))
}
