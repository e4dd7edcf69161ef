package server

// Degraded-mode serving and panic-containment tests (acceptance criteria of
// the fault-tolerant data plane): the daemon serves correct brute-force
// results until the background build hot-swaps the index in; panics in the
// build or in handlers become a degraded state, a 500 and a counter, never
// a dead process.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"thetis"
	"thetis/internal/obs"
)

var degradedCfg = thetis.IndexConfig{Vectors: 16, BandSize: 4, Seed: 1}

func searchTop(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	out := postJSON(t, ts.URL+"/search", searchBody, http.StatusOK)
	results := out["results"].([]any)
	if len(results) == 0 {
		t.Fatal("no search results")
	}
	return results[0].(map[string]any)["name"].(string)
}

// TestReadyzContract: /readyz answers 200 in every state (degraded still
// serves correct results), while ?full=1 answers 503 until ready.
func TestReadyzContract(t *testing.T) {
	ready := NewReadiness(obs.NewRegistry())
	sys := demoSystem(t)
	ts := httptest.NewServer(New(sys, WithReadiness(ready)))
	t.Cleanup(ts.Close)

	for _, tc := range []struct {
		state    IndexState
		fullCode int
	}{
		{StateBuilding, http.StatusServiceUnavailable},
		{StateDegraded, http.StatusServiceUnavailable},
		{StateReady, http.StatusOK},
	} {
		ready.Set(tc.state, "test transition")
		out := getJSON(t, ts.URL+"/readyz", http.StatusOK)
		if out["state"] != tc.state.String() || out["detail"] != "test transition" || out["since"] == nil {
			t.Errorf("readyz in %v = %v", tc.state, out)
		}
		if _, ok := out["shards"]; ok {
			t.Errorf("a local daemon's readyz has no shards breakdown: %v", out)
		}
		getJSON(t, ts.URL+"/readyz?full=1", tc.fullCode)
		// Every state serves correct results.
		if top := searchTop(t, ts); top != "roster" {
			t.Errorf("state %v: top result = %q, want roster", tc.state, top)
		}
	}
}

// TestActivateIndexNoSnapshot: the daemon starts in
// building state and flips to ready when the background build lands.
func TestActivateIndexNoSnapshot(t *testing.T) {
	sys := demoSystem(t)
	ready := NewReadiness(obs.NewRegistry())
	done := ActivateIndex(sys, ready, degradedCfg, 1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ready.State() != StateReady {
		t.Fatalf("state after build = %v, want ready", ready.State())
	}
	if !sys.HasIndex() {
		t.Fatal("no index active after build")
	}
}

// TestFaultBuildPanicContained: a panicking index build (here: no similarity
// selected) is recovered, counted, and parks the daemon in degraded mode —
// still serving — instead of killing the process.
func TestFaultBuildPanicContained(t *testing.T) {
	g := thetis.NewGraph()
	sys := thetis.New(g) // no UseTypeSimilarity: BuildIndex will panic
	ready := NewReadiness(obs.NewRegistry())
	done := ActivateIndex(sys, ready, degradedCfg, 1)
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("done = %v, want contained panic", err)
	}
	if ready.State() != StateDegraded {
		t.Fatalf("state after build panic = %v, want degraded", ready.State())
	}
}

// TestFaultHTTPPanicContained: a handler panic becomes a 500 with a JSON
// error body and increments thetis_panics_total{site="http"}; the server
// keeps answering afterwards.
func TestFaultHTTPPanicContained(t *testing.T) {
	reg := obs.NewRegistry()
	srv := New(demoSystem(t), WithRegistry(reg))
	poisoned := true
	srv.testHookRequest = func(r *http.Request) {
		if poisoned && r.URL.Path == "/search" {
			poisoned = false
			panic("poisoned request")
		}
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	out := postJSON(t, ts.URL+"/search", searchBody, http.StatusInternalServerError)
	if msg, _ := out["error"].(string); !strings.Contains(msg, "internal error") {
		t.Errorf("panic response body = %v", out)
	}
	if n := scrapeCounter(t, reg, `thetis_panics_total{site="http"}`); n != 1 {
		t.Errorf("thetis_panics_total = %d, want 1", n)
	}
	// The server survived: the next request succeeds.
	if top := searchTop(t, ts); top != "roster" {
		t.Errorf("post-panic top result = %q", top)
	}
}
