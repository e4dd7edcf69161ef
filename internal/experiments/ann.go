package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"thetis/internal/core"
	"thetis/internal/datagen"
	"thetis/internal/embedding"
	"thetis/internal/kg"
	"thetis/internal/metrics"
)

// ANN differential harness (`benchrunner -exp ann`, docs/ANN.md): measures
// what the HNSW top-k σ mode trades away and what it buys, against exact
// embedding σ on the same corpus and queries. Two layers:
//
//   - index quality: recall@k of HNSW TopK against brute-force exact
//     nearest neighbors over the query entities, swept across efSearch;
//   - ranking quality: the NDCG@10 each σ achieves against the benchmark
//     ground truth. Drift is exact-σ NDCG minus top-k-σ NDCG — the quality
//     the approximation costs on the end metric. Agreement (NDCG@10 of the
//     top-k ranking graded by the exact ranking's scores) is reported as an
//     informational column: rank swaps among near-tied tables inflate it
//     without moving retrieval quality.
//
// The ANN gate (ann_test.go) pins the k=10/ef=64
// operating point to recall ≥ 0.95 and drift ≤ 0.02.

// ANNRow is one swept (k, efSearch) operating point.
type ANNRow struct {
	K, Ef int
	// Recall is mean recall@K of TopK vs brute force over query entities.
	Recall float64
	// Drift is exact NDCG@10 minus top-k σ NDCG@10, both against ground
	// truth (measured on the k=10 rows; 0 when not measured).
	Drift float64
	// Agreement is mean NDCG@10 of the top-k σ ranking graded by the exact
	// σ top-10 scores (1 = identical top-10; k=10 rows only).
	Agreement float64
	// TopKLatency is the mean per-entity TopK call time.
	TopKLatency time.Duration
}

// ANNResult is the harness output (rendered to the bench report and
// serialized into BENCH_ann.json).
type ANNResult struct {
	Entities   int // entities probed (distinct query entities)
	GraphNodes int // entities indexed by the graph
	Dim        int
	Build      time.Duration
	Rows       []ANNRow

	// ExactNDCG is the exact-σ NDCG@10 baseline against ground truth.
	ExactNDCG float64

	// First-touch σ cost at the k=10/ef=64 operating point: mean full-scan
	// search time per query with a fresh σ cache, exact vs top-k σ.
	ExactSearch, AnnSearch time.Duration
	Speedup                float64

	// Recall10 and Drift10 are the acceptance-gate numbers (k=10, ef=64).
	Recall10, Drift10 float64
}

// efIndex pins a TopK beam width, so one built graph serves every swept
// operating point.
type efIndex struct {
	ix *embedding.HNSW
	ef int
}

func (e efIndex) TopK(vec embedding.Vector, k int) []embedding.Neighbor {
	return e.ix.TopKEf(vec, k, e.ef)
}

// RunANN builds the HNSW graph over the environment's embedding store and
// runs the recall/NDCG differential sweep.
func RunANN(env *Env) ANNResult {
	out := ANNResult{Dim: env.Store.Dim()}

	t0 := time.Now()
	ix := embedding.BuildHNSW(env.Store, embedding.DefaultHNSWConfig())
	out.Build = time.Since(t0)
	out.GraphNodes = ix.Len()
	norm := env.Store.Normalized()

	queries := append(append([]datagen.BenchmarkQuery{}, env.Queries1...), env.Queries5...)

	// Probe entities: every distinct entity of the benchmark query sets —
	// the vectors the serving path actually resolves neighborhoods for.
	seen := map[kg.EntityID]bool{}
	var probes []kg.EntityID
	for _, bq := range queries {
		for _, e := range bq.Query.DistinctEntities() {
			if !seen[e] {
				seen[e] = true
				probes = append(probes, e)
			}
		}
	}
	out.Entities = len(probes)

	// Exact reference rankings (top 10 per query) and the ground-truth
	// NDCG baseline, computed once.
	exactTop := make([][]core.Result, len(queries))
	exactEng := env.EngineEmbeddings()
	var exactTotal time.Duration
	var exactNDCG float64
	for i, bq := range queries {
		t0 := time.Now()
		res, _ := exactEng.SearchCandidates(bq.Query, nil, 10)
		exactTotal += time.Since(t0)
		exactTop[i] = res
		exactNDCG += metrics.NDCG(core.RankedTables(res), env.GT[bq.Name].Grades, 10)
	}
	out.ExactSearch = exactTotal / time.Duration(len(queries))
	out.ExactNDCG = exactNDCG / float64(len(queries))

	sweep := []struct{ k, ef int }{
		{10, 16}, {10, 32}, {10, 64}, {10, 128}, {5, 64}, {20, 64},
	}
	for _, pt := range sweep {
		row := ANNRow{K: pt.k, Ef: pt.ef}
		// Index-level recall@k vs brute force.
		var recall float64
		var topkTime time.Duration
		counted := 0
		for _, e := range probes {
			v, ok := norm.Get(e)
			if !ok {
				continue
			}
			exact := embedding.BruteForceTopK(norm, v, pt.k)
			t0 := time.Now()
			got := ix.TopKEf(v, pt.k, pt.ef)
			topkTime += time.Since(t0)
			want := make(map[kg.EntityID]bool, len(exact))
			for _, nb := range exact {
				want[nb.ID] = true
			}
			hit := 0
			for _, nb := range got {
				if want[nb.ID] {
					hit++
				}
			}
			recall += float64(hit) / float64(len(exact))
			counted++
		}
		if counted > 0 {
			row.Recall = recall / float64(counted)
			row.TopKLatency = topkTime / time.Duration(counted)
		}
		// Ranking-level NDCG@10 at k=10 points (the serving shape).
		if pt.k == 10 {
			annEng := env.EngineEmbeddings()
			annEng.SigmaTopK = pt.k
			annEng.Ann = efIndex{ix: ix, ef: pt.ef}
			var annNDCG, agreeSum float64
			agreed := 0
			var annTotal time.Duration
			for i, bq := range queries {
				t0 := time.Now()
				res, _ := annEng.SearchCandidates(bq.Query, nil, 10)
				annTotal += time.Since(t0)
				ranked := core.RankedTables(res)
				annNDCG += metrics.NDCG(ranked, env.GT[bq.Name].Grades, 10)
				grades := make(map[int]float64, len(exactTop[i]))
				for _, r := range exactTop[i] {
					grades[int(r.Table)] = r.Score
				}
				if len(grades) > 0 {
					agreeSum += metrics.NDCG(ranked, grades, 10)
					agreed++
				}
			}
			row.Drift = out.ExactNDCG - annNDCG/float64(len(queries))
			if agreed > 0 {
				row.Agreement = agreeSum / float64(agreed)
			}
			if pt.ef == 64 {
				out.AnnSearch = annTotal / time.Duration(len(queries))
				out.Recall10 = row.Recall
				out.Drift10 = row.Drift
			}
		}
		out.Rows = append(out.Rows, row)
	}
	if out.AnnSearch > 0 {
		out.Speedup = float64(out.ExactSearch) / float64(out.AnnSearch)
	}
	return out
}

// Render prints the sweep and the first-touch σ comparison.
func (r ANNResult) Render(w io.Writer) {
	renderHeader(w, "ANN top-k sigma: HNSW recall and ranking drift vs exact embedding sigma")
	fmt.Fprintf(w, "graph: %d nodes, dim %d, built in %v (M=%d efC=%d); %d probe entities; exact NDCG@10 %.4f\n\n",
		r.GraphNodes, r.Dim, r.Build.Round(time.Millisecond),
		embedding.DefaultHNSWConfig().M, embedding.DefaultHNSWConfig().EfConstruction,
		r.Entities, r.ExactNDCG)
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "k\tefSearch\trecall@k\tNDCG@10 drift\tagreement\tTopK latency")
	for _, row := range r.Rows {
		drift, agree := "-", "-"
		if row.K == 10 {
			drift = fmt.Sprintf("%.4f", row.Drift)
			agree = fmt.Sprintf("%.4f", row.Agreement)
		}
		fmt.Fprintf(tw, "%d\t%d\t%.4f\t%s\t%s\t%v\n", row.K, row.Ef, row.Recall, drift, agree, row.TopKLatency.Round(time.Microsecond))
	}
	tw.Flush()
	fmt.Fprintf(w, "\nfirst-touch search (full scan, fresh sigma cache, top-10):\n")
	fmt.Fprintf(w, "  exact sigma    %v/query\n", r.ExactSearch.Round(time.Microsecond))
	fmt.Fprintf(w, "  top-10 sigma   %v/query (ef=64)  speedup %.2fx\n", r.AnnSearch.Round(time.Microsecond), r.Speedup)
	fmt.Fprintf(w, "  gate: recall@10 %.4f (>= 0.95), drift %.4f (<= 0.02)\n", r.Recall10, r.Drift10)
}

// JSON serializes the result as one BENCH_ann.json trajectory record.
func (r ANNResult) JSON() ([]byte, error) {
	type jsonRow struct {
		K          int     `json:"k"`
		Ef         int     `json:"ef"`
		Recall     float64 `json:"recall"`
		Drift      float64 `json:"ndcg10_drift"`
		Agreement  float64 `json:"ndcg10_agreement"`
		TopKMicros float64 `json:"topk_us"`
	}
	rows := make([]jsonRow, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = jsonRow{
			K: row.K, Ef: row.Ef, Recall: row.Recall,
			Drift: row.Drift, Agreement: row.Agreement,
			TopKMicros: float64(row.TopKLatency.Microseconds()),
		}
	}
	return json.MarshalIndent(map[string]any{
		"experiment":     "ann",
		"graph_nodes":    r.GraphNodes,
		"dim":            r.Dim,
		"build_seconds":  r.Build.Seconds(),
		"probe_entities": r.Entities,
		"exact_ndcg10":   r.ExactNDCG,
		"sweep":          rows,
		"sigma_first_touch": map[string]any{
			"exact_us":  float64(r.ExactSearch.Microseconds()),
			"ann_us":    float64(r.AnnSearch.Microseconds()),
			"speedup":   r.Speedup,
			"recall_10": r.Recall10,
			"drift_10":  r.Drift10,
		},
	}, "", "  ")
}
