package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"thetis/internal/core"
	"thetis/internal/datagen"
)

// The shared small environment is expensive enough to build once.
var (
	envOnce sync.Once
	testEnv *Env
)

func sharedEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		testEnv = NewEnv(SmallConfig(), nil)
	})
	return testEnv
}

func TestNewEnvShape(t *testing.T) {
	env := sharedEnv(t)
	if env.Lake.NumTables() != env.Config.Tables {
		t.Errorf("tables = %d, want %d", env.Lake.NumTables(), env.Config.Tables)
	}
	if len(env.Queries1) != len(env.Queries5) || len(env.Queries5) != env.Config.Queries {
		t.Errorf("queries = %d/%d, want %d", len(env.Queries1), len(env.Queries5), env.Config.Queries)
	}
	for i := range env.Queries1 {
		if len(env.Queries1[i].Query) != 1 || len(env.Queries5[i].Query) != 5 {
			t.Fatal("query sizes wrong")
		}
		if _, ok := env.GT[env.Queries5[i].Name]; !ok {
			t.Fatal("missing ground truth")
		}
	}
	if env.Store.Len() == 0 {
		t.Error("no embeddings trained")
	}
}

func TestTable2ProfilesOrdered(t *testing.T) {
	env := sharedEnv(t)
	res := RunTable2(env)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	// Corpus-size ordering of Table 2: WT2015 < WT2019 < GitTables < Synthetic.
	if !(byName["WT 2015"].Tables < byName["WT 2019"].Tables &&
		byName["WT 2019"].Tables < byName["GitTables"].Tables &&
		byName["GitTables"].Tables < byName["Synthetic"].Tables) {
		t.Errorf("corpus sizes out of order: %+v", res.Rows)
	}
	// Coverage ordering: WT2019 lowest of the Wiki profiles.
	if byName["WT 2019"].MeanCoverage >= byName["WT 2015"].MeanCoverage {
		t.Errorf("WT2019 coverage %v >= WT2015 %v",
			byName["WT 2019"].MeanCoverage, byName["WT 2015"].MeanCoverage)
	}
	// GitTables has the largest tables.
	if byName["GitTables"].MeanRows <= byName["WT 2015"].MeanRows {
		t.Error("GitTables should have larger tables")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "GitTables") {
		t.Error("render missing rows")
	}
}

// The headline shape of Figure 4: semantic search and BM25 are comparable;
// union/join/TURL baselines are far worse.
func TestFig4Shape(t *testing.T) {
	env := sharedEnv(t)
	res := RunFig4(env)

	for _, tuples := range []int{1, 5} {
		stst := res.Mean("STST", tuples)
		stse := res.Mean("STSE", tuples)
		union := res.Mean("Union", tuples)
		unionE := res.Mean("UnionE", tuples)
		join := res.Mean("Join", tuples)
		turl := res.Mean("TURL", tuples)
		if stst <= 0 || stse <= 0 {
			t.Fatalf("tuples=%d: semantic NDCG not positive: STST=%v STSE=%v", tuples, stst, stse)
		}
		// Baselines must be clearly dominated. The paper reports orders of
		// magnitude on 238K tables; at test-corpus scale we require every
		// baseline at least 25% below semantic search, and the union/TURL
		// baselines (the figure's weakest) at least 2x below.
		for name, v := range map[string]float64{"Union": union, "UnionE": unionE, "Join": join, "TURL": turl} {
			if v > stst*0.75 && v > stse*0.75 {
				t.Errorf("tuples=%d: baseline %s NDCG %v not dominated by STST %v / STSE %v",
					tuples, name, v, stst, stse)
			}
		}
		for name, v := range map[string]float64{"Union": union, "UnionE": unionE, "TURL": turl} {
			if v > stst/2 && v > stse/2 {
				t.Errorf("tuples=%d: baseline %s NDCG %v not far below STST %v / STSE %v",
					tuples, name, v, stst, stse)
			}
		}
		// LSH configurations achieve NDCG comparable to brute force
		// (within 25% of it — the paper reports "equivalent").
		for _, cfg := range []string{"T(32,8)", "T(128,8)", "T(30,10)"} {
			if v := res.Mean(cfg, tuples); v < stst*0.75 {
				t.Errorf("tuples=%d: %s NDCG %v much worse than brute force %v", tuples, cfg, v, stst)
			}
		}
		for _, cfg := range []string{"E(32,8)", "E(128,8)", "E(30,10)"} {
			if v := res.Mean(cfg, tuples); v < stse*0.75 {
				t.Errorf("tuples=%d: %s NDCG %v much worse than brute force %v", tuples, cfg, v, stse)
			}
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "STST") {
		t.Error("render missing series")
	}
}

// The headline shape of Figure 5: complementing BM25 with semantic search
// improves recall over BM25 alone.
func TestFig5ComplementImprovesRecall(t *testing.T) {
	env := sharedEnv(t)
	res := RunFig5(env)
	for _, tuples := range []int{1, 5} {
		for _, k := range []int{100, 200} {
			bm := res.Median("BM25text", tuples, k)
			ststc := res.Median("STSTC", tuples, k)
			stsec := res.Median("STSEC", tuples, k)
			if ststc < bm-1e-9 && stsec < bm-1e-9 {
				t.Errorf("tuples=%d k=%d: complemented recall (%v/%v) below BM25 alone (%v)",
					tuples, k, ststc, stsec, bm)
			}
		}
	}
}

// Tables 3 and 4 shape: prefiltering reduces candidates and does not slow
// search down; 3 votes prune at least as much as 1 vote.
func TestTable34Shape(t *testing.T) {
	env := sharedEnv(t)
	res := RunTable34(env)
	for _, tuples := range []int{1, 5} {
		brute, ok := res.Cell("STST", tuples, 0)
		if !ok {
			t.Fatal("missing brute-force cell")
		}
		if brute.Reduction != 0 {
			t.Errorf("brute force reduction = %v, want 0", brute.Reduction)
		}
		for _, method := range []string{"T(32,8)", "T(128,8)", "T(30,10)"} {
			v1, ok1 := res.Cell(method, tuples, 1)
			v3, ok3 := res.Cell(method, tuples, 3)
			if !ok1 || !ok3 {
				t.Fatalf("missing cells for %s", method)
			}
			if v1.Reduction <= 0 {
				t.Errorf("%s tuples=%d: no search-space reduction", method, tuples)
			}
			if v3.Reduction < v1.Reduction-1e-9 {
				t.Errorf("%s tuples=%d: 3 votes reduced less (%v) than 1 vote (%v)",
					method, tuples, v3.Reduction, v1.Reduction)
			}
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "Table 4") {
		t.Error("render missing tables")
	}
}

// Figure 6 shape: NDCG decreases (weakly) as the coverage cap tightens, and
// is still positive at the 40% cap.
func TestFig6Shape(t *testing.T) {
	env := sharedEnv(t)
	res := RunFig6(env)
	for _, tuples := range []int{1, 5} {
		for _, method := range []string{"STST", "STSE"} {
			full := res.Mean(method, tuples, 1.0)
			low := res.Mean(method, tuples, 0.4)
			if full < 0 || low < 0 {
				t.Fatalf("missing points for %s", method)
			}
			if low > full+1e-9 {
				t.Errorf("%s tuples=%d: NDCG at 40%% cap (%v) exceeds uncapped (%v)",
					method, tuples, low, full)
			}
		}
	}
}

// Aggregation ablation shape: MAX >= AVG on NDCG (the paper: up to 5x).
func TestAggregationAblationShape(t *testing.T) {
	env := sharedEnv(t)
	res := RunAggregationAblation(env)
	for _, tuples := range []int{1, 5} {
		for _, method := range []string{"STST", "STSE"} {
			mx := res.Mean(method, tuples, core.AggregateMax)
			av := res.Mean(method, tuples, core.AggregateAvg)
			if mx < av-1e-9 {
				t.Errorf("%s tuples=%d: MAX %v < AVG %v", method, tuples, mx, av)
			}
		}
	}
}

func TestOverlapRunsAndRenders(t *testing.T) {
	env := sharedEnv(t)
	res := RunOverlap(env)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Summary.Max > 100 {
			t.Errorf("set difference %v exceeds depth 100", row.Summary.Max)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestScoringMicrobench(t *testing.T) {
	env := sharedEnv(t)
	res := RunScoring(env)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.MeanPerTable <= 0 {
			t.Errorf("%s tuples=%d: non-positive per-table time", row.Method, row.Tuples)
		}
		if row.MappingFraction <= 0 || row.MappingFraction > 1 {
			t.Errorf("%s tuples=%d: mapping fraction %v out of (0,1]", row.Method, row.Tuples, row.MappingFraction)
		}
	}
}

func TestBM25FilterAblation(t *testing.T) {
	env := sharedEnv(t)
	res := RunBM25FilterAblation(env)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestScalingShape(t *testing.T) {
	env := sharedEnv(t)
	res := RunScaling(env)
	// Runtime should grow (weakly) with corpus size per method/tuples.
	type key struct {
		method string
		tuples int
	}
	sizes := map[key][]int{}
	for _, row := range res.Rows {
		k := key{row.Method, row.Tuples}
		sizes[k] = append(sizes[k], row.Tables)
		if row.Reduction < 0 || row.Reduction > 1 {
			t.Errorf("reduction %v out of range", row.Reduction)
		}
	}
	for k, s := range sizes {
		if len(s) != len(ScalingFactors) {
			t.Errorf("%v: %d corpus sizes, want %d", k, len(s), len(ScalingFactors))
		}
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				t.Errorf("%v: corpus sizes not increasing: %v", k, s)
			}
		}
	}
}

func TestWT2019Shape(t *testing.T) {
	env := sharedEnv(t)
	res := RunWT2019(env)
	if res.Tables <= env.Config.Tables {
		t.Errorf("WT2019 corpus (%d) not larger than base (%d)", res.Tables, env.Config.Tables)
	}
	if res.Coverage >= 0.277 {
		t.Errorf("WT2019 coverage %v not lower than WT2015's 27.7%%", res.Coverage)
	}
	for _, row := range res.Rows {
		if row.MeanNDCG <= 0 {
			t.Errorf("%s tuples=%d: NDCG %v not positive at low coverage", row.Method, row.Tuples, row.MeanNDCG)
		}
	}
}

func TestGitTablesShape(t *testing.T) {
	env := sharedEnv(t)
	res := RunGitTables(env)
	if res.MeanRows < 50 {
		t.Errorf("GitTables profile mean rows = %v, want large tables", res.MeanRows)
	}
	for _, row := range res.Rows {
		if row.Reduction <= 0 {
			t.Errorf("%s: no reduction on GitTables profile", row.Method)
		}
		if row.MeanTime <= 0 {
			t.Errorf("%s: bad time", row.Method)
		}
	}
}

func TestNoisyLinkShape(t *testing.T) {
	env := sharedEnv(t)
	res := RunNoisyLink(env)
	if res.F1 >= 1 {
		t.Errorf("noisy linker F1 = %v, should be degraded", res.F1)
	}
	if res.F1 <= 0 {
		t.Errorf("noisy linker F1 = %v, should retain some quality", res.F1)
	}
	positive := 0
	for _, row := range res.Rows {
		if row.MeanNDCG > 0 {
			positive++
		}
	}
	if positive == 0 {
		t.Error("no method retrieved anything under the noisy linker")
	}
}

func TestRunRegistry(t *testing.T) {
	env := sharedEnv(t)
	ids := ExperimentIDs()
	if len(ids) != 19 {
		t.Errorf("experiment IDs = %v", ids)
	}
	var buf bytes.Buffer
	if err := Run(env, "table2", &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("Run produced no output")
	}
	if err := Run(env, "nope", &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestScoreModeAblation(t *testing.T) {
	env := sharedEnv(t)
	res := RunScoreModeAblation(env)
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Summary.Mean <= 0 {
			t.Errorf("%s tuples=%d mode=%v: NDCG not positive", row.Method, row.Tuples, row.Mode)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "pairwise") {
		t.Error("render missing modes")
	}
}

func TestMappingAblationShape(t *testing.T) {
	env := sharedEnv(t)
	res := RunMappingAblation(env)
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Hungarian should not be clearly worse than greedy on quality.
	for _, tuples := range []int{1, 5} {
		for _, method := range []string{"STST", "STSE"} {
			h := res.Mean(method, tuples, "hungarian")
			g := res.Mean(method, tuples, "greedy")
			if h < g*0.95 {
				t.Errorf("%s tuples=%d: hungarian NDCG %v well below greedy %v", method, tuples, h, g)
			}
		}
	}
}

func TestQueryAggAblation(t *testing.T) {
	env := sharedEnv(t)
	res := RunQueryAggAblation(env)
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Reduction < 0 || row.Reduction > 1 {
			t.Errorf("reduction out of range: %+v", row)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestInformativenessAblation(t *testing.T) {
	env := sharedEnv(t)
	res := RunInformativenessAblation(env)
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Summary.Mean <= 0 {
			t.Errorf("%s/%s tuples=%d: NDCG not positive", row.Method, row.Weighting, row.Tuples)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "uniform") {
		t.Error("render missing weightings")
	}
}

func TestWalkAblation(t *testing.T) {
	env := sharedEnv(t)
	res := RunWalkAblation(env)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.MeanNDCG <= 0 {
			t.Errorf("tuples=%d walks=%s: NDCG not positive", row.Tuples, row.Walks)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestNewEnvFromBenchmark(t *testing.T) {
	// Write a tiny benchmark and replay an experiment on it.
	k := datagen.GenerateKG(datagen.KGConfig{
		Domains: 2, LeafTypesPerDomain: 2, MembersPerLeafType: 20,
		GroupsPerDomain: 4, Places: 8, EdgesPerMember: 2, Seed: 3,
	})
	l := datagen.GenerateCorpus(k, datagen.ProfileWT2015(60))
	qs := datagen.GenerateQueries(k, datagen.QueryConfig{Count: 3, TuplesPerQuery: 5, Width: 3, Seed: 3})
	dir := t.TempDir()
	if err := datagen.WriteBenchmark(dir, k.Graph, l, qs); err != nil {
		t.Fatal(err)
	}
	cfg := SmallConfig()
	env, err := NewEnvFromBenchmark(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if env.Lake.NumTables() != 60 || len(env.Queries5) != 3 {
		t.Fatalf("loaded env shape: %d tables, %d queries", env.Lake.NumTables(), len(env.Queries5))
	}
	res := RunTable2(env)
	if len(res.Rows) != 2 {
		t.Errorf("replayed Table 2 rows = %d, want 2 (loaded + synthetic)", len(res.Rows))
	}
	// Generation-dependent experiments degrade gracefully on replayed envs.
	if rows := RunWT2019(env).Rows; len(rows) != 0 {
		t.Errorf("WT2019 on replayed env produced rows: %v", rows)
	}
	var buf bytes.Buffer
	RunWT2019(env).Render(&buf)
	if !strings.Contains(buf.String(), "skipped") {
		t.Error("WT2019 skip notice missing")
	}
	if _, _, _, err := datagen.LoadBenchmark(t.TempDir()); err == nil {
		t.Error("empty benchmark dir accepted")
	}
}
