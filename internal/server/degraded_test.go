package server

// Degraded-mode serving and panic-containment tests (acceptance criteria of
// the fault-tolerant data plane): a corrupt snapshot is rejected but the
// daemon keeps serving correct brute-force results until the background
// rebuild hot-swaps a fresh index in; panics in handlers become 500s and a
// counter, never a dead process.

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"thetis"
	"thetis/internal/atomicio"
	"thetis/internal/obs"
)

var degradedCfg = thetis.IndexConfig{Vectors: 16, BandSize: 4, Seed: 1}

// indexSnapshot builds and serializes a valid LSEI snapshot for the demo
// system's corpus.
func indexSnapshot(t *testing.T) []byte {
	t.Helper()
	sys := demoSystem(t)
	sys.BuildIndex(degradedCfg)
	var buf bytes.Buffer
	if err := sys.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

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

// TestActivateIndexValidSnapshot: an intact snapshot activates synchronously
// — ready before ActivateIndex even returns, no background build.
func TestActivateIndexValidSnapshot(t *testing.T) {
	snap := indexSnapshot(t)
	sys := demoSystem(t)
	ready := NewReadiness(obs.NewRegistry())
	done := ActivateIndex(sys, ready, degradedCfg, 1, bytes.NewReader(snap))
	if ready.State() != StateReady {
		t.Fatalf("state after valid snapshot = %v, want ready", ready.State())
	}
	if !sys.HasIndex() {
		t.Fatal("no index active after snapshot load")
	}
	if err := <-done; err != nil {
		t.Fatalf("done = %v", err)
	}
}

// TestActivateIndexCorruptSnapshot is the degraded-mode acceptance path: a
// snapshot with one flipped byte is rejected (typed corruption, never a
// wrong load), the daemon keeps serving correct brute-force results, and the
// background rebuild eventually flips /readyz to ready with searches intact.
func TestActivateIndexCorruptSnapshot(t *testing.T) {
	snap := indexSnapshot(t)
	snap[len(snap)/2] ^= 0x40

	// The loader itself reports typed corruption and leaves no index.
	sys := demoSystem(t)
	if err := sys.LoadIndex(bytes.NewReader(snap)); !errors.Is(err, atomicio.ErrCorruptSnapshot) {
		t.Fatalf("corrupt snapshot load: %v, want ErrCorruptSnapshot", err)
	}
	if sys.HasIndex() {
		t.Fatal("corrupt snapshot installed an index")
	}

	ready := NewReadiness(obs.NewRegistry())
	ts := httptest.NewServer(New(sys, WithReadiness(ready)))
	t.Cleanup(ts.Close)

	done := ActivateIndex(sys, ready, degradedCfg, 1, bytes.NewReader(snap))
	// The rejection is synchronous: by the time ActivateIndex returns the
	// daemon is past building — degraded (brute force), or already ready if
	// the rebuild won the race. Either way searches are correct.
	if st := ready.State(); st == StateBuilding {
		t.Fatalf("state after corrupt snapshot = %v", st)
	}
	if top := searchTop(t, ts); top != "roster" {
		t.Errorf("degraded-mode top result = %q, want roster", top)
	}

	if err := <-done; err != nil {
		t.Fatalf("background rebuild: %v", err)
	}
	if ready.State() != StateReady || !sys.HasIndex() {
		t.Fatalf("after rebuild: state=%v hasIndex=%v", ready.State(), sys.HasIndex())
	}
	out := getJSON(t, ts.URL+"/readyz?full=1", http.StatusOK)
	if out["state"] != "ready" {
		t.Errorf("readyz after rebuild = %v", out)
	}
	// Index-backed results match a never-degraded system's.
	fresh := demoSystem(t)
	fresh.BuildIndex(degradedCfg)
	q, err := sys.ParseQuery("Ron Santo | Chicago Cubs")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sys.Search(q, 5), fresh.Search(q, 5); !reflect.DeepEqual(got, want) {
		t.Errorf("post-rebuild results differ:\n got %v\nwant %v", got, want)
	}
}

// TestActivateIndexNoSnapshot: without a snapshot the daemon starts in
// building state and flips to ready when the background build lands.
func TestActivateIndexNoSnapshot(t *testing.T) {
	sys := demoSystem(t)
	ready := NewReadiness(obs.NewRegistry())
	done := ActivateIndex(sys, ready, degradedCfg, 1, nil)
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
	done := ActivateIndex(sys, ready, degradedCfg, 1, nil)
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
