package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Renderer is implemented by every experiment result.
type Renderer interface {
	Render(w io.Writer)
}

// registry maps experiment IDs (as used by `benchrunner -exp <id>`) to
// their runners.
var registry = map[string]func(*Env) Renderer{
	"table2":     func(e *Env) Renderer { return RunTable2(e) },
	"fig4":       func(e *Env) Renderer { return RunFig4(e) },
	"fig5":       func(e *Env) Renderer { return RunFig5(e) },
	"table3":     func(e *Env) Renderer { return RunTable34(e) },
	"table4":     func(e *Env) Renderer { return RunTable34(e) },
	"fig6":       func(e *Env) Renderer { return RunFig6(e) },
	"agg":        func(e *Env) Renderer { return RunAggregationAblation(e) },
	"bm25filter": func(e *Env) Renderer { return RunBM25FilterAblation(e) },
	"overlap":    func(e *Env) Renderer { return RunOverlap(e) },
	"scoring":    func(e *Env) Renderer { return RunScoring(e) },
	"scaling":    func(e *Env) Renderer { return RunScaling(e) },
	"wt2019":     func(e *Env) Renderer { return RunWT2019(e) },
	"gittables":  func(e *Env) Renderer { return RunGitTables(e) },
	"noisylink":  func(e *Env) Renderer { return RunNoisyLink(e) },
	"scoremode":  func(e *Env) Renderer { return RunScoreModeAblation(e) },
	"mapping":    func(e *Env) Renderer { return RunMappingAblation(e) },
	"queryagg":   func(e *Env) Renderer { return RunQueryAggAblation(e) },
	"inf":        func(e *Env) Renderer { return RunInformativenessAblation(e) },
	"walks":      func(e *Env) Renderer { return RunWalkAblation(e) },
}

// ExperimentIDs returns the sorted list of runnable experiment IDs.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by ID and renders it to w.
func Run(env *Env, id string, w io.Writer) error {
	f, ok := registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, ExperimentIDs())
	}
	f(env).Render(w)
	return nil
}

// RunAll executes every experiment in a stable order. "table3" and
// "table4" share one result, so the pair runs once.
func RunAll(env *Env, w io.Writer) {
	order := []string{
		"table2", "fig4", "fig5", "table3", "fig6",
		"agg", "overlap", "scoring", "bm25filter",
		"scoremode", "mapping", "queryagg", "inf", "walks",
		"scaling", "wt2019", "gittables", "noisylink",
	}
	for _, id := range order {
		registry[id](env).Render(w)
	}
}
