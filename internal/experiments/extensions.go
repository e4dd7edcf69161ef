package experiments

import (
	"fmt"
	"io"
	"time"

	"thetis/internal/core"
	"thetis/internal/datagen"
	"thetis/internal/lake"
	"thetis/internal/metrics"
	"thetis/internal/oracle"
)

// --- Score-mode ablation (Section 4.1's two SemRel interpretations) ---

// The ablations run on internal/oracle, which holds the readings the served
// engine does not: the pairwise SemRel of Equation 1 and the greedy column
// mapping. Every cell, the paper's own included, ranks the whole lake there.

// ScoreModeRow is one (similarity, tuples, mode) cell; Mode is "entitywise"
// or "pairwise".
type ScoreModeRow struct {
	Method  string
	Tuples  int
	Mode    string
	Summary metrics.Summary
}

// ScoreModeResult compares Algorithm 1's entity-wise aggregation against
// the pairwise tuple-to-tuple reading of Equation 1 (both with MAX row
// aggregation). The paper adopts the entity-wise algorithm; this ablation
// quantifies how much the choice matters on NDCG@10.
type ScoreModeResult struct {
	Rows []ScoreModeRow
}

// RunScoreModeAblation evaluates both modes on both query sizes.
func RunScoreModeAblation(env *Env) ScoreModeResult {
	var out ScoreModeResult
	for _, tuples := range []int{1, 5} {
		queries := env.QuerySet(tuples)
		for _, kind := range []SimKind{SimTypes, SimEmbeddings} {
			for _, mode := range []string{"entitywise", "pairwise"} {
				r := oracleRunner(env, kind, oracle.Config{Pairwise: mode == "pairwise"})
				sample := evalNDCG(env, r, queries, 10)
				out.Rows = append(out.Rows, ScoreModeRow{
					Method: fmt.Sprintf("STS%v", kind), Tuples: tuples, Mode: mode,
					Summary: metrics.Summarize(sample),
				})
			}
		}
	}
	return out
}

// Render prints the comparison.
func (r ScoreModeResult) Render(w io.Writer) {
	renderHeader(w, "Ablation: SemRel interpretation (entity-wise Algorithm 1 vs pairwise Eq. 1), NDCG@10")
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Method\tTuples\tMode\tNDCG@10 distribution")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%v\t%s\n", row.Method, row.Tuples, row.Mode, fmtSummary(row.Summary))
	}
	tw.Flush()
}

// --- Mapping-method ablation (Section 5.1's Hungarian choice) ---

// MappingRow is one (similarity, tuples, method) cell; Mapping is
// "hungarian" or "greedy".
type MappingRow struct {
	Method   string
	Tuples   int
	Mapping  string
	MeanNDCG float64
	MeanTime time.Duration
}

// MappingResult quantifies the Hungarian-vs-greedy column mapping choice:
// quality (NDCG@10) and cost (mean oracle search time, a full scan that
// maps every table).
type MappingResult struct {
	Rows []MappingRow
}

// RunMappingAblation evaluates both assignment algorithms.
func RunMappingAblation(env *Env) MappingResult {
	var out MappingResult
	for _, tuples := range []int{1, 5} {
		queries := env.QuerySet(tuples)
		for _, kind := range []SimKind{SimTypes, SimEmbeddings} {
			for _, mapping := range []string{"hungarian", "greedy"} {
				r := oracleRunner(env, kind, oracle.Config{Greedy: mapping == "greedy"})
				var ndcg []float64
				var total time.Duration
				for _, bq := range queries {
					start := time.Now()
					ranked, _ := r.Search(bq, 10)
					total += time.Since(start)
					ndcg = append(ndcg, metrics.NDCG(ranked, env.GT[bq.Name].Grades, 10))
				}
				out.Rows = append(out.Rows, MappingRow{
					Method: fmt.Sprintf("STS%v", kind), Tuples: tuples, Mapping: mapping,
					MeanNDCG: metrics.Summarize(ndcg).Mean,
					MeanTime: total / time.Duration(len(queries)),
				})
			}
		}
	}
	return out
}

// Render prints the comparison.
func (r MappingResult) Render(w io.Writer) {
	renderHeader(w, "Ablation: query-to-column mapping (Hungarian vs greedy)")
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Method\tTuples\tMapping\tMean NDCG@10\tMean time")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%v\t%.3f\t%v\n",
			row.Method, row.Tuples, row.Mapping, row.MeanNDCG, row.MeanTime.Round(time.Microsecond))
	}
	tw.Flush()
}

// Mean returns the mean NDCG of a cell, or -1.
func (r MappingResult) Mean(method string, tuples int, mapping string) float64 {
	for _, row := range r.Rows {
		if row.Method == method && row.Tuples == tuples && row.Mapping == mapping {
			return row.MeanNDCG
		}
	}
	return -1
}

// --- Query-side LSH column aggregation (Section 6.2) ---

// QueryAggRow is one (similarity, tuples, aggregated?) cell.
type QueryAggRow struct {
	Method     string
	Tuples     int
	Aggregated bool
	MeanNDCG   float64
	MeanTime   time.Duration
	Reduction  float64
}

// QueryAggResult evaluates query-side column aggregation for LSEI lookups:
// multi-tuple queries probe the index once per column instead of once per
// entity, trading approximation for lookup cost.
type QueryAggResult struct {
	Rows []QueryAggRow
}

// RunQueryAggAblation compares plain and query-aggregated candidate
// generation with the (30,10) configuration.
func RunQueryAggAblation(env *Env) QueryAggResult {
	m := NewMethods(env)
	cfg := core.LSEIConfig{Vectors: 30, BandSize: 10, Seed: 1}
	var out QueryAggResult
	for _, tuples := range []int{1, 5} {
		queries := env.QuerySet(tuples)
		for _, kind := range []SimKind{SimTypes, SimEmbeddings} {
			lsei := m.LSEI(kind, cfg)
			eng := engineFor(env, kind)
			for _, aggregated := range []bool{false, true} {
				var ndcg []float64
				var total time.Duration
				var reduction float64
				for _, bq := range queries {
					start := time.Now()
					var cands []lake.TableID
					if aggregated {
						cands = lsei.CandidatesAggregated(bq.Query, 1)
					} else {
						cands = lsei.Candidates(bq.Query, 1)
					}
					res, _ := eng.SearchCandidates(bq.Query, cands, 10)
					total += time.Since(start)
					reduction += lsei.Reduction(cands)
					ndcg = append(ndcg, metrics.NDCG(core.RankedTables(res), env.GT[bq.Name].Grades, 10))
				}
				n := float64(len(queries))
				out.Rows = append(out.Rows, QueryAggRow{
					Method: fmt.Sprintf("%v(30,10)", kind), Tuples: tuples, Aggregated: aggregated,
					MeanNDCG:  metrics.Summarize(ndcg).Mean,
					MeanTime:  total / time.Duration(len(queries)),
					Reduction: reduction / n,
				})
			}
		}
	}
	return out
}

// Render prints the comparison.
func (r QueryAggResult) Render(w io.Writer) {
	renderHeader(w, "Ablation: query-side LSH column aggregation (Section 6.2)")
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Method\tTuples\tQuery agg\tMean NDCG@10\tMean time\tReduction")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%v\t%.3f\t%v\t%s\n",
			row.Method, row.Tuples, row.Aggregated, row.MeanNDCG,
			row.MeanTime.Round(time.Microsecond), fmtPct(row.Reduction))
	}
	tw.Flush()
}

// --- helpers shared by the ablation runners ---

// engineFor builds a fresh engine for the similarity kind.
func engineFor(env *Env, kind SimKind) *core.Engine {
	if kind == SimEmbeddings {
		return env.EngineEmbeddings()
	}
	return env.EngineTypes()
}

// oracleRunner ranks the whole lake with the oracle under cfg, over the σ
// and informativeness of the kind's engine, and cuts the ranking at k.
func oracleRunner(env *Env, kind SimKind, cfg oracle.Config) Runner {
	eng := engineFor(env, kind)
	cfg.Sim, cfg.Weight = eng.Sim, eng.Inf
	return Runner{
		Name: fmt.Sprintf("STS%v/oracle", kind),
		Search: func(bq datagen.BenchmarkQuery, k int) ([]int, core.Stats) {
			ranked := cfg.Rank(env.Lake, oracle.Tuples(bq.Query))
			stats := core.Stats{Candidates: env.Lake.NumTables(), Scored: len(ranked)}
			if k >= 0 && k < len(ranked) {
				ranked = ranked[:k]
			}
			ids := make([]int, len(ranked))
			for i, r := range ranked {
				ids[i] = int(r.Table)
			}
			return ids, stats
		},
	}
}

// engineRunner wraps a configured engine as a Runner.
func engineRunner(name string, eng *core.Engine) Runner {
	return Runner{
		Name: name,
		Search: func(bq datagen.BenchmarkQuery, k int) ([]int, core.Stats) {
			res, stats := eng.Search(bq.Query, k)
			return core.RankedTables(res), stats
		},
	}
}
