package experiments

import (
	"fmt"
	"io"
	"time"

	"thetis/internal/core"
	"thetis/internal/datagen"
	"thetis/internal/metrics"
)

// --- Row-aggregation ablation (Section 7.2, "Aggregating row scores") ---

// AggregationResult compares MAX vs AVG row-score aggregation on NDCG@10;
// the paper reports MAX "up to 5x better NDCG scores on average".
type AggregationResult struct {
	Rows []AggregationRow
}

// AggregationRow is one (similarity, tuples, aggregation) cell.
type AggregationRow struct {
	Method  string
	Tuples  int
	Agg     core.Aggregation
	Summary metrics.Summary
}

// RunAggregationAblation evaluates both aggregations for both similarities
// and query sizes.
func RunAggregationAblation(env *Env) AggregationResult {
	var out AggregationResult
	for _, tuples := range []int{1, 5} {
		queries := env.QuerySet(tuples)
		for _, kind := range []SimKind{SimTypes, SimEmbeddings} {
			for _, agg := range []core.Aggregation{core.AggregateMax, core.AggregateAvg} {
				var eng *core.Engine
				if kind == SimEmbeddings {
					eng = env.EngineEmbeddings()
				} else {
					eng = env.EngineTypes()
				}
				eng.Agg = agg
				r := Runner{
					Name: fmt.Sprintf("STS%v/%v", kind, agg),
					Search: func(bq datagen.BenchmarkQuery, k int) ([]int, core.Stats) {
						res, stats := eng.Search(bq.Query, k)
						return core.RankedTables(res), stats
					},
				}
				sample := evalNDCG(env, r, queries, 10)
				out.Rows = append(out.Rows, AggregationRow{
					Method: fmt.Sprintf("STS%v", kind), Tuples: tuples, Agg: agg,
					Summary: metrics.Summarize(sample),
				})
			}
		}
	}
	return out
}

// Render prints the comparison.
func (r AggregationResult) Render(w io.Writer) {
	renderHeader(w, "Ablation: row-score aggregation (MAX vs AVG), NDCG@10")
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Method\tTuples\tAggregation\tNDCG@10 distribution")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%v\t%s\n", row.Method, row.Tuples, row.Agg, fmtSummary(row.Summary))
	}
	tw.Flush()
}

// Mean returns the mean NDCG for a cell, or -1.
func (r AggregationResult) Mean(method string, tuples int, agg core.Aggregation) float64 {
	for _, row := range r.Rows {
		if row.Method == method && row.Tuples == tuples && row.Agg == agg {
			return row.Summary.Mean
		}
	}
	return -1
}

// --- BM25-as-prefilter ablation (Section 7.3) ---

// BM25FilterResult compares LSH prefiltering against naive BM25
// prefiltering (candidate set = BM25 top results). The paper reports NDCG
// drops of 13–30% for the BM25 filter.
type BM25FilterResult struct {
	Rows []BM25FilterRow
}

// BM25FilterRow is one (similarity, tuples) comparison.
type BM25FilterRow struct {
	Method       string
	Tuples       int
	LSHNDCG      float64 // mean NDCG@10 with LSH prefilter
	BM25NDCG     float64 // mean NDCG@10 with BM25 prefilter
	RelativeDrop float64 // (LSH - BM25) / LSH
}

// RunBM25FilterAblation evaluates both prefilters with the recommended
// (30,10) LSH configuration.
func RunBM25FilterAblation(env *Env) BM25FilterResult {
	m := NewMethods(env)
	cfg := core.LSEIConfig{Vectors: 30, BandSize: 10, Seed: 1}
	var out BM25FilterResult
	for _, tuples := range []int{1, 5} {
		queries := env.QuerySet(tuples)
		for _, kind := range []SimKind{SimTypes, SimEmbeddings} {
			lshRunner := m.SemanticLSH(kind, cfg, 3)
			eng := m.engine(kind)
			lsei := m.LSEI(kind, cfg)
			bmRunner := Runner{
				Name: "BM25filter",
				Search: func(bq datagen.BenchmarkQuery, k int) ([]int, core.Stats) {
					// Fair comparison: BM25 keeps exactly as many
					// candidates as the recommended LSH prefilter (3 votes)
					// does for this query.
					n := len(lsei.Candidates(bq.Query, 3))
					if n < k {
						n = k
					}
					hits := env.BM25.Search(bq.KeywordQuery(env.KG.Graph), n)
					cands := make([]int32, len(hits))
					for i, h := range hits {
						cands[i] = h.Doc
					}
					res, stats := eng.SearchCandidates(bq.Query, toTableIDs(cands), k)
					return core.RankedTables(res), stats
				},
			}
			lsh := metrics.Summarize(evalNDCG(env, lshRunner, queries, 10)).Mean
			bm := metrics.Summarize(evalNDCG(env, bmRunner, queries, 10)).Mean
			drop := 0.0
			if lsh > 0 {
				drop = (lsh - bm) / lsh
			}
			out.Rows = append(out.Rows, BM25FilterRow{
				Method: fmt.Sprintf("STS%v", kind), Tuples: tuples,
				LSHNDCG: lsh, BM25NDCG: bm, RelativeDrop: drop,
			})
		}
	}
	return out
}

// Render prints the comparison.
func (r BM25FilterResult) Render(w io.Writer) {
	renderHeader(w, "Ablation: LSH prefilter vs naive BM25 prefilter, mean NDCG@10")
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Method\tTuples\tLSH NDCG\tBM25-filter NDCG\tNDCG drop")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%s\n",
			row.Method, row.Tuples, row.LSHNDCG, row.BM25NDCG, fmtPct(row.RelativeDrop))
	}
	tw.Flush()
}

// --- Result-set difference vs BM25 (Section 7.2) ---

// OverlapResult measures how different the semantic top-100 is from the
// BM25 top-100; the paper reports median set differences of 66–100 tables,
// i.e. "our semantic table search algorithm finds a disjoint set of tables
// from BM25".
type OverlapResult struct {
	Rows []OverlapRow
}

// OverlapRow is one (similarity, tuples) cell: the distribution of
// |semantic top-100 \ BM25 top-100| across queries.
type OverlapRow struct {
	Method  string
	Tuples  int
	Summary metrics.Summary
}

// RunOverlap computes per-query result-set differences at depth 100.
func RunOverlap(env *Env) OverlapResult {
	m := NewMethods(env)
	bm := m.BM25Text()
	var out OverlapResult
	for _, tuples := range []int{1, 5} {
		queries := env.QuerySet(tuples)
		for _, kind := range []SimKind{SimTypes, SimEmbeddings} {
			sem := m.SemanticBrute(kind)
			var sample []float64
			for _, bq := range queries {
				semTop, _ := sem.Search(bq, 100)
				bmTop, _ := bm.Search(bq, 100)
				inBM := make(map[int]bool, len(bmTop))
				for _, id := range bmTop {
					inBM[id] = true
				}
				diff := 0
				for _, id := range semTop {
					if !inBM[id] {
						diff++
					}
				}
				sample = append(sample, float64(diff))
			}
			out.Rows = append(out.Rows, OverlapRow{
				Method: sem.Name, Tuples: tuples, Summary: metrics.Summarize(sample),
			})
		}
	}
	return out
}

// Render prints the distribution of set differences.
func (r OverlapResult) Render(w io.Writer) {
	renderHeader(w, "Result-set difference vs BM25 at top-100 (tables unique to semantic search)")
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Method\tTuples\t|semantic \\ BM25| distribution")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\n", row.Method, row.Tuples, fmtSummary(row.Summary))
	}
	tw.Flush()
}

// --- Table-scoring microbenchmark (Section 7.3, "Table scoring") ---

// ScoringResult measures the per-table scoring cost and the fraction spent
// in the query-to-column mapping μ. The paper reports 2.2–16.6 ms per table
// with 58–78% spent in μ.
type ScoringResult struct {
	Rows []ScoringRow
}

// ScoringRow is one (similarity, tuples) cell.
type ScoringRow struct {
	Method          string
	Tuples          int
	MeanPerTable    time.Duration
	MappingFraction float64
}

// RunScoring scores every corpus table once per query and reports means.
func RunScoring(env *Env) ScoringResult {
	var out ScoringResult
	for _, tuples := range []int{1, 5} {
		queries := env.QuerySet(tuples)
		for _, kind := range []SimKind{SimTypes, SimEmbeddings} {
			var eng *core.Engine
			if kind == SimEmbeddings {
				eng = env.EngineEmbeddings()
			} else {
				eng = env.EngineTypes()
			}
			eng.Parallelism = 1 // per-table timing wants a single thread
			eng.ExactMapping = true
			var total, mapping time.Duration
			tables := 0
			for _, bq := range queries {
				start := time.Now()
				_, stats := eng.Search(bq.Query, 10)
				total += time.Since(start)
				// With Parallelism = 1 the mapping stage's CPU time is
				// wall time, so the fraction below is well-defined.
				if st := stats.Trace.Stage("mapping"); st != nil {
					mapping += st.CPU
				}
				tables += stats.Candidates
			}
			row := ScoringRow{Method: fmt.Sprintf("STS%v", kind), Tuples: tuples}
			if tables > 0 {
				row.MeanPerTable = total / time.Duration(tables)
			}
			if total > 0 {
				row.MappingFraction = float64(mapping) / float64(total)
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// Render prints the microbenchmark.
func (r ScoringResult) Render(w io.Writer) {
	renderHeader(w, "Table scoring cost and fraction spent in the mapping µ")
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Method\tTuples\tMean per table\tTime in µ")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%v\t%s\n",
			row.Method, row.Tuples, row.MeanPerTable.Round(time.Nanosecond*100), fmtPct(row.MappingFraction))
	}
	tw.Flush()
}
