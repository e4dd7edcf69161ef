package server

import (
	"net/http/httptest"
	"testing"

	"thetis"
)

// TestANNStatusEndpoint: /debug/ann reports the ANN serving state — off by
// default, and enabled with a populated graph once EnableAnnTopK ran.
func TestANNStatusEndpoint(t *testing.T) {
	ts := demoServer(t)
	body := getJSON(t, ts.URL+"/debug/ann", 200)
	if body["enabled"] != false {
		t.Fatalf("enabled = %v, want false", body["enabled"])
	}

	sys := demoSystem(t)
	sys.TrainEmbeddings(thetis.DefaultWalkConfig(), thetis.DefaultTrainConfig())
	sys.UseEmbeddingSimilarity()
	if err := sys.EnableAnnTopK(5, 32); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(sys))
	t.Cleanup(ts2.Close)
	body = getJSON(t, ts2.URL+"/debug/ann", 200)
	if body["enabled"] != true {
		t.Fatalf("status = %v, want enabled", body)
	}
	if body["top_k"].(float64) != 5 || body["ef_search"].(float64) != 32 {
		t.Fatalf("params = %v", body)
	}
	if body["graph_nodes"].(float64) <= 0 {
		t.Fatalf("graph_nodes = %v, want > 0", body["graph_nodes"])
	}
}
