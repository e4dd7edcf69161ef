package thetis_test

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (Section 7). Each benchmark regenerates its artifact
// over a shared scaled-down benchmark environment and reports headline
// numbers as custom metrics. Run everything with:
//
//	go test -bench=. -benchmem
//
// The full-size paper-style report is produced by cmd/benchrunner.

import (
	"sync"
	"testing"

	"thetis/internal/core"
	"thetis/internal/experiments"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

// benchEnvironment lazily builds the shared scaled-down environment. It is
// also used by the request-lifecycle tests (timeout_test.go), hence
// testing.TB rather than *testing.B.
func benchEnvironment(b testing.TB) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv = experiments.NewEnv(experiments.SmallConfig(), nil)
	})
	return benchEnv
}

// BenchmarkTable2CorpusStats regenerates Table 2 (benchmark statistics for
// the four corpus profiles).
func BenchmarkTable2CorpusStats(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	var res experiments.Table2Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunTable2(env)
	}
	b.ReportMetric(res.Rows[0].MeanCoverage*100, "wt2015-cov-%")
	b.ReportMetric(float64(res.Rows[3].Tables), "synthetic-tables")
}

// BenchmarkFig4NDCG regenerates Figure 4 (NDCG@10 for semantic search, LSH
// configurations, and baselines).
func BenchmarkFig4NDCG(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	var res experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig4(env)
	}
	b.ReportMetric(res.Mean("STST", 1), "stst-ndcg@10")
	b.ReportMetric(res.Mean("STSE", 1), "stse-ndcg@10")
	b.ReportMetric(res.Mean("BM25text", 1), "bm25-ndcg@10")
	b.ReportMetric(res.Mean("TURL", 1), "turl-ndcg@10")
}

// BenchmarkFig5Recall regenerates Figure 5 (recall@100/@200 with the
// BM25-complemented STSTC/STSEC variants).
func BenchmarkFig5Recall(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	var res experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig5(env)
	}
	b.ReportMetric(res.Median("BM25text", 5, 100), "bm25-recall@100")
	b.ReportMetric(res.Median("STSTC", 5, 100), "ststc-recall@100")
	b.ReportMetric(res.Median("STSEC", 5, 100), "stsec-recall@100")
}

// BenchmarkTable3Runtime regenerates Table 3 (search runtime per LSH
// configuration and vote threshold).
func BenchmarkTable3Runtime(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	var res experiments.Table34Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunTable34(env)
	}
	if c, ok := res.Cell("T(30,10)", 5, 3); ok {
		b.ReportMetric(float64(c.MeanTime.Microseconds()), "t3010-5t-3v-us")
	}
	if c, ok := res.Cell("STST", 5, 0); ok {
		b.ReportMetric(float64(c.MeanTime.Microseconds()), "stst-brute-5t-us")
	}
}

// BenchmarkTable4Reduction regenerates Table 4 (search-space reduction per
// LSH configuration and vote threshold).
func BenchmarkTable4Reduction(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	var res experiments.Table34Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunTable34(env)
	}
	if c, ok := res.Cell("T(30,10)", 1, 3); ok {
		b.ReportMetric(c.Reduction*100, "t3010-1t-3v-red-%")
	}
	if c, ok := res.Cell("E(30,10)", 1, 3); ok {
		b.ReportMetric(c.Reduction*100, "e3010-1t-3v-red-%")
	}
}

// BenchmarkFig6Coverage regenerates Figure 6 (NDCG@10 when decreasing
// entity-link coverage).
func BenchmarkFig6Coverage(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	var res experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig6(env)
	}
	b.ReportMetric(res.Mean("STST", 1, 1.0), "stst-cov100-ndcg")
	b.ReportMetric(res.Mean("STST", 1, 0.4), "stst-cov40-ndcg")
}

// BenchmarkAblationAggregation regenerates the MAX-vs-AVG row aggregation
// ablation of Section 7.2.
func BenchmarkAblationAggregation(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	var res experiments.AggregationResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunAggregationAblation(env)
	}
	b.ReportMetric(res.Mean("STST", 5, core.AggregateMax), "max-ndcg")
	b.ReportMetric(res.Mean("STST", 5, core.AggregateAvg), "avg-ndcg")
}

// BenchmarkTableScoring regenerates the per-table scoring microbenchmark of
// Section 7.3 (cost of scoring one table; fraction spent in the mapping µ).
func BenchmarkTableScoring(b *testing.B) {
	env := benchEnvironment(b)
	b.ReportAllocs()
	b.ResetTimer()
	var res experiments.ScoringResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunScoring(env)
	}
	for _, row := range res.Rows {
		if row.Tuples == 1 && row.Method == "STST" {
			b.ReportMetric(float64(row.MeanPerTable.Nanoseconds()), "ns/table")
			b.ReportMetric(row.MappingFraction*100, "mapping-%")
		}
	}
}

// BenchmarkScaling regenerates the synthetic-corpus scaling sweep of
// Section 7.4.
func BenchmarkScaling(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunScaling(env)
	}
}

// BenchmarkBM25FilterAblation regenerates the BM25-as-prefilter ablation of
// Section 7.3.
func BenchmarkBM25FilterAblation(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunBM25FilterAblation(env)
	}
}

// BenchmarkSearchBruteVsLSH measures a single search end-to-end, the
// operation Tables 3/4 aggregate: brute force versus (30,10)-prefiltered.
func BenchmarkSearchBruteVsLSH(b *testing.B) {
	env := benchEnvironment(b)
	m := experiments.NewMethods(env)
	query := env.Queries5[0]
	for _, bench := range []struct {
		name   string
		runner experiments.Runner
	}{
		{"BruteTypes", m.SemanticBrute(experiments.SimTypes)},
		{"BruteEmbeddings", m.SemanticBrute(experiments.SimEmbeddings)},
		{"LSHTypes3010", m.SemanticLSH(experiments.SimTypes, core.LSEIConfig{Vectors: 30, BandSize: 10, Seed: 1}, 3)},
		{"LSHEmbeddings3010", m.SemanticLSH(experiments.SimEmbeddings, core.LSEIConfig{Vectors: 30, BandSize: 10, Seed: 1}, 3)},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bench.runner.Search(query, 10)
			}
		})
	}
}

// BenchmarkMappingWideQuery measures a brute-force search with a wide
// multi-tuple query whose tuples repeat entities — the regression guard for
// the σ-submatrix reuse in the column mapping (docs/PERFORMANCE.md): each
// distinct query entity's score-matrix row is computed once per table and
// shared by every tuple, so width and repetition must not multiply σ cost.
func BenchmarkMappingWideQuery(b *testing.B) {
	env := benchEnvironment(b)
	// Flatten the benchmark query's 5 tuples into 5 wide tuples that all
	// share one entity pool — maximal cross-tuple repetition.
	var pool core.Tuple
	for _, tu := range env.Queries5[0].Query {
		pool = append(pool, tu...)
	}
	wide := make(core.Query, 5)
	for i := range wide {
		wide[i] = append(core.Tuple{}, pool[i%len(pool)])
		wide[i] = append(wide[i], pool...)
	}
	for _, mapping := range []core.MappingMethod{core.MappingHungarian, core.MappingGreedy} {
		b.Run(mapping.String(), func(b *testing.B) {
			eng := core.NewEngine(env.Lake, env.TJ)
			eng.Mapping = mapping
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng.Search(wide, 10)
			}
		})
	}
}

// BenchmarkAblationScoreMode regenerates the SemRel-interpretation ablation
// (entity-wise Algorithm 1 vs pairwise Equation 1).
func BenchmarkAblationScoreMode(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunScoreModeAblation(env)
	}
}

// BenchmarkAblationMapping regenerates the Hungarian-vs-greedy column
// mapping ablation.
func BenchmarkAblationMapping(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	var res experiments.MappingResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunMappingAblation(env)
	}
	b.ReportMetric(res.Mean("STST", 5, core.MappingHungarian), "hungarian-ndcg")
	b.ReportMetric(res.Mean("STST", 5, core.MappingGreedy), "greedy-ndcg")
}

// BenchmarkAblationQueryAggregation regenerates the query-side LSH column
// aggregation ablation of Section 6.2.
func BenchmarkAblationQueryAggregation(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunQueryAggAblation(env)
	}
}

// BenchmarkEmbeddingTraining measures the RDF2Vec-substitute training
// pipeline end to end on the benchmark KG.
func BenchmarkEmbeddingTraining(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := trainForBench(env, env.Config)
		if store.Len() == 0 {
			b.Fatal("no vectors trained")
		}
	}
}

// BenchmarkAblationInformativeness regenerates the IDF-vs-uniform
// informativeness ablation (Section 5.2's weighting).
func BenchmarkAblationInformativeness(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunInformativenessAblation(env)
	}
}

// BenchmarkAblationWalkVocabulary regenerates the entity-only vs
// predicate-aware walk ablation for embedding training.
func BenchmarkAblationWalkVocabulary(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunWalkAblation(env)
	}
}
