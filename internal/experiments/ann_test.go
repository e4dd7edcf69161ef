package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestANNThresholds is the ANN acceptance gate: at the serving
// operating point (k=10, efSearch=64) the HNSW index must recover at least
// 95% of the exact nearest neighbors, and the top-k σ ranking must stay
// within 0.02 NDCG@10 of the exact σ ranking.
func TestANNThresholds(t *testing.T) {
	env := sharedEnv(t)
	res := RunANN(env)

	if res.GraphNodes == 0 || res.GraphNodes > env.Store.Len() {
		t.Fatalf("graph nodes = %d, store len = %d", res.GraphNodes, env.Store.Len())
	}
	if res.Entities == 0 {
		t.Fatal("no probe entities")
	}
	if res.Recall10 < 0.95 {
		t.Errorf("recall@10 (ef=64) = %.4f, want >= 0.95", res.Recall10)
	}
	if res.Drift10 > 0.02 {
		t.Errorf("NDCG@10 drift (k=10, ef=64) = %.4f, want <= 0.02", res.Drift10)
	}

	// efSearch is the recall knob: the swept k=10 rows must not lose recall
	// as ef grows (allowing a tiny measurement slack).
	var prev float64
	for _, row := range res.Rows {
		if row.K != 10 {
			continue
		}
		if row.Recall < prev-0.01 {
			t.Errorf("recall@10 fell from %.4f to %.4f as ef grew to %d", prev, row.Recall, row.Ef)
		}
		prev = row.Recall
	}
}

func TestANNRenderAndJSON(t *testing.T) {
	env := sharedEnv(t)
	res := RunANN(env)

	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"recall@k", "NDCG@10 drift", "speedup", "gate:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}

	raw, err := res.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if doc["experiment"] != "ann" {
		t.Errorf("experiment = %v", doc["experiment"])
	}
	if _, ok := doc["sweep"].([]any); !ok {
		t.Errorf("sweep missing or not a list: %T", doc["sweep"])
	}
	if _, ok := doc["sigma_first_touch"].(map[string]any); !ok {
		t.Errorf("sigma_first_touch missing: %T", doc["sigma_first_touch"])
	}
}
