package server

// Handler tests for the shard-over-HTTP endpoints (remote.go): the
// scatter-leg route, the artifact bootstrap route, the coordinator /readyz
// variant, and the read-only 405 mapping.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"thetis"
	"thetis/internal/lake"
	"thetis/internal/remote"
)

func postSealed(t *testing.T, srv http.Handler, path string, v any) *httptest.ResponseRecorder {
	t.Helper()
	body, err := remote.Seal(v)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func TestRemoteShardSearchEndpoint(t *testing.T) {
	srv := New(demoSystem(t))
	rec := postSealed(t, srv, "/shard/search", remote.SearchRequest{
		Tuples: [][]string{{"res/santo", "res/cubs"}},
		K:      5,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var p remote.SearchPayload
	if err := remote.Open(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("response not a sealed payload: %v", err)
	}
	if len(p.Results) == 0 {
		t.Fatal("known entities matched no tables")
	}
	if p.Results[0].Table != 0 { // the roster table is local table 0
		t.Fatalf("top result table %d, want 0", p.Results[0].Table)
	}
	if p.Stats.Scored == 0 {
		t.Fatalf("stats did not travel: %+v", p.Stats)
	}
}

func TestRemoteShardSearchEndpointRejectsCorruption(t *testing.T) {
	srv := New(demoSystem(t))
	body, err := remote.Seal(remote.SearchRequest{Tuples: [][]string{{"res/santo"}}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in flight: the daemon must answer 400 (the
	// client retries), never merge or 500.
	bad := bytes.Replace(body, []byte("santo"), []byte("sant0"), 1)
	req := httptest.NewRequest(http.MethodPost, "/shard/search", bytes.NewReader(bad))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("corrupted leg answered %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "checksum") {
		t.Fatalf("error does not name the checksum: %s", rec.Body.String())
	}
}

func TestRemoteShardArtifactsEndpoint(t *testing.T) {
	sys := demoSystem(t)
	srv := New(sys)
	rec := postSealed(t, srv, "/shard/artifacts", remote.Artifacts{
		Informativeness: map[string]float64{"res/santo": 2.0},
		Votes:           2,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	// A malformed envelope is the sender's fault: 400.
	req := httptest.NewRequest(http.MethodPost, "/shard/artifacts", strings.NewReader("junk"))
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage artifacts answered %d, want 400", rec.Code)
	}
	// A well-formed payload the daemon cannot honor (invalid index spec)
	// is 422, so the coordinator's bootstrap fails loudly instead of
	// retrying a hopeless push.
	rec = postSealed(t, srv, "/shard/artifacts", remote.Artifacts{
		Votes: 1,
		Index: &remote.IndexSpec{Vectors: 7, BandSize: 10},
	})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("bad index spec answered %d, want 422", rec.Code)
	}
}

func TestRemoteShardReadyz(t *testing.T) {
	statuses := []remote.Status{
		{Shard: "0", Replicas: []remote.ReplicaStatus{{URL: "http://a", Breaker: "closed"}}},
		{Shard: "1", Replicas: []remote.ReplicaStatus{
			{URL: "http://b", Breaker: "open"},
			{URL: "http://b2", Breaker: "closed"},
		}},
	}
	srv := New(demoSystem(t), WithRemoteShardStatus(func() []remote.Status { return statuses }))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"ready"`) || !strings.Contains(rec.Body.String(), "2/2") {
		t.Fatalf("healthy fleet not reported ready: %s", rec.Body.String())
	}
	// Shard 1 loses its last healthy replica: degraded, and ?full=1
	// flips to 503 so orchestrators can hold traffic.
	statuses[1].Replicas[1].Breaker = "open"
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"degraded"`) {
		t.Fatalf("degraded fleet: %d %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz?full=1", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz?full=1 on degraded fleet = %d, want 503", rec.Code)
	}
}

// readOnlyBackend wraps the demo system with mutations rejected the way a
// System in coordinator mode rejects them.
type readOnlyBackend struct{ *thetis.System }

func (readOnlyBackend) AddTableJSON(data []byte) (lake.TableID, error) {
	return 0, thetis.ErrReadOnly
}
func (readOnlyBackend) RemoveTable(id lake.TableID) error { return thetis.ErrReadOnly }

func TestReadOnlyMutationsAnswer405(t *testing.T) {
	srv := New(readOnlyBackend{demoSystem(t)})
	req := httptest.NewRequest(http.MethodPost, "/tables", strings.NewReader(`{"name":"x"}`))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /tables on read-only backend = %d, want 405", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/tables/0", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /tables/0 on read-only backend = %d, want 405", rec.Code)
	}
}
