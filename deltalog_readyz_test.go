package thetis_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"thetis"
	"thetis/internal/server"
)

// TestFaultDeltaLogFailureTurnsReadyzDegraded drives the whole chain a
// silent non-durable write used to slip through: a delta-log fsync that
// starts failing mid-serving keeps POST /tables answering 201 (availability
// over durability), but within the same request cycle /readyz reports
// degraded with the error as detail, ?full=1 answers 503, and
// thetis_delta_log_failed flips to 1 — none of it waiting on the
// maintenance lock an index build holds.
func TestFaultDeltaLogFailureTurnsReadyzDegraded(t *testing.T) {
	g := thetis.NewGraph()
	if err := thetis.LoadTriples(g, strings.NewReader(`<res/santo> <rdf:type> <onto/BaseballPlayer> .`+"\n")); err != nil {
		t.Fatal(err)
	}
	sys := thetis.New(g)
	sys.UseTypeSimilarity()
	if err := sys.AttachDeltaLog(filepath.Join(t.TempDir(), "deltas.log")); err != nil {
		t.Fatal(err)
	}
	defer sys.CloseDeltaLog()
	ts := httptest.NewServer(server.New(sys))
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	addTable := func(name string) {
		t.Helper()
		body := `{"name": "` + name + `", "attributes": ["Player"], "rows": [[{"value": "Ron Santo", "entity": "res/santo"}]]}`
		resp, err := http.Post(ts.URL+"/tables", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /tables %s = %d, want 201", name, resp.StatusCode)
		}
	}

	addTable("durable")
	if code, body := get("/readyz?full=1"); code != http.StatusOK || !strings.Contains(body, `"ready"`) {
		t.Fatalf("healthy log: /readyz?full=1 = %d %s", code, body)
	}

	sys.FailDeltaLogSyncs()
	addTable("not-durable") // still accepted
	release := sys.HoldMaintenance()
	defer release()
	code, body := get("/readyz?full=1")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"degraded"`) ||
		!strings.Contains(body, "delta log stopped logging") || !strings.Contains(body, "injected fault") {
		t.Fatalf("failed log: /readyz?full=1 = %d %s", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("failed log: plain /readyz = %d, want 200 (the daemon still serves)", code)
	}
	if _, metrics := get("/metrics"); !strings.Contains(metrics, "thetis_delta_log_failed 1") {
		t.Fatal("/metrics does not report thetis_delta_log_failed 1")
	}
}
