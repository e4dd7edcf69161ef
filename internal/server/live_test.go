package server

// Endpoint tests for live mutation: POST /tables, DELETE /tables/{id}, and
// the epoch surfaced on /stats (docs/LIVE_INDEX.md).

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"thetis"
)

const newTableJSON = `{"name":"legends","attributes":["Player","Team"],` +
	`"rows":[[{"v":"Ernie Banks","e":"res/banks"},{"v":"Chicago Cubs","e":"res/cubs"}]]}`

func doJSON(t *testing.T, method, url, body string, wantStatus int) map[string]any {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s status = %d, want %d", method, url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAddTableEndpoint(t *testing.T) {
	ts := demoServer(t)
	before := getJSON(t, ts.URL+"/stats", http.StatusOK)
	out := doJSON(t, http.MethodPost, ts.URL+"/tables", newTableJSON, http.StatusCreated)
	id, ok := out["id"].(float64)
	if !ok {
		t.Fatalf("POST /tables response lacks numeric id: %v", out)
	}
	if out["epoch"].(float64) <= before["epoch"].(float64) {
		t.Fatalf("epoch did not advance on add: %v -> %v", before["epoch"], out["epoch"])
	}
	// The new table is immediately visible and searchable.
	got := getJSON(t, ts.URL+"/tables/"+strconv.Itoa(int(id)), http.StatusOK)
	if got["name"] != "legends" {
		t.Fatalf("GET of new table returned %v", got)
	}
	hits := postJSON(t, ts.URL+"/search", `{"query":"Ernie Banks","k":5}`, http.StatusOK)
	found := false
	for _, r := range hits["results"].([]any) {
		if r.(map[string]any)["table"].(float64) == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("semantic search does not find the added table: %v", hits["results"])
	}
	after := getJSON(t, ts.URL+"/stats", http.StatusOK)
	if after["tables"].(float64) != before["tables"].(float64)+1 {
		t.Fatalf("table count %v, want %v", after["tables"], before["tables"].(float64)+1)
	}
}

func TestAddTableEndpointRejectsBadBody(t *testing.T) {
	ts := demoServer(t)
	doJSON(t, http.MethodPost, ts.URL+"/tables", `{not json`, http.StatusBadRequest)
	// Structurally invalid: row arity does not match the attributes.
	doJSON(t, http.MethodPost, ts.URL+"/tables",
		`{"name":"ragged","attributes":["A"],"rows":[[{"v":"a"},{"v":"b"}]]}`, http.StatusBadRequest)
}

func TestRemoveTableEndpoint(t *testing.T) {
	ts := demoServer(t)
	out := doJSON(t, http.MethodPost, ts.URL+"/tables", newTableJSON, http.StatusCreated)
	id := strconv.Itoa(int(out["id"].(float64)))
	del := doJSON(t, http.MethodDelete, ts.URL+"/tables/"+id, "", http.StatusOK)
	if del["epoch"].(float64) <= out["epoch"].(float64) {
		t.Fatalf("epoch did not advance on remove: %v -> %v", out["epoch"], del["epoch"])
	}
	// Gone from reads; repeat deletes and bad IDs are clean 404s, not 500s.
	getJSON(t, ts.URL+"/tables/"+id, http.StatusNotFound)
	doJSON(t, http.MethodDelete, ts.URL+"/tables/"+id, "", http.StatusNotFound)
	doJSON(t, http.MethodDelete, ts.URL+"/tables/99999", "", http.StatusNotFound)
	doJSON(t, http.MethodDelete, ts.URL+"/tables/banana", "", http.StatusNotFound)
}

// removeRankedBackend removes the top-ranked table after each search has
// finished and released the read lock, before the handler sees the ranking:
// a DELETE /tables/{id} landing between search and encode, made certain.
type removeRankedBackend struct{ *thetis.System }

func (b removeRankedBackend) SearchStatsContext(ctx context.Context, q thetis.Query, k int) ([]thetis.Result, thetis.SearchStats) {
	results, stats := b.System.SearchStatsContext(ctx, q, k)
	if len(results) > 0 {
		b.RemoveTable(results[0].Table)
	}
	return results, stats
}

func (b removeRankedBackend) SearchBatchContext(ctx context.Context, queries []thetis.Query, k int) ([][]thetis.Result, []thetis.SearchStats) {
	results, stats := b.System.SearchBatchContext(ctx, queries, k)
	if len(results) > 0 && len(results[0]) > 0 {
		b.RemoveTable(results[0][0].Table)
	}
	return results, stats
}

func (b removeRankedBackend) KeywordSearch(text string, k int) []thetis.TableID {
	ids := b.System.KeywordSearch(text, k)
	if len(ids) > 0 {
		b.RemoveTable(ids[0])
	}
	return ids
}

func (b removeRankedBackend) HybridSearchContext(ctx context.Context, q thetis.Query, keywords string, k int) []thetis.TableID {
	ids := b.System.HybridSearchContext(ctx, q, keywords, k)
	if len(ids) > 0 {
		b.RemoveTable(ids[0])
	}
	return ids
}

// TestRankedTableRemovedBeforeEncode: a table removed after it was ranked
// keeps its place in the response with an empty name — 200, not a nil
// dereference recovered into a 500.
func TestRankedTableRemovedBeforeEncode(t *testing.T) {
	for _, tc := range []struct{ path, body string }{
		{"/search", `{"query": "Ron Santo | Chicago Cubs", "k": 5}`},
		{"/search/batch", `{"queries": ["Ron Santo | Chicago Cubs"], "k": 5}`},
		{"/keyword", `{"q": "ron santo"}`},
		{"/hybrid", `{"query": "Ron Santo | Chicago Cubs", "k": 5}`},
	} {
		t.Run(strings.ReplaceAll(tc.path[1:], "/", "_"), func(t *testing.T) {
			intact := postJSON(t, demoServer(t).URL+tc.path, tc.body, http.StatusOK)

			sys := demoSystem(t)
			racing := httptest.NewServer(New(removeRankedBackend{sys}))
			defer racing.Close()
			got := postJSON(t, racing.URL+tc.path, tc.body, http.StatusOK)
			if sys.NumTables() != 1 {
				t.Fatalf("the decorator removed nothing: %d tables left", sys.NumTables())
			}

			ranking := func(resp map[string]any) []any {
				if batch, ok := resp["results"].([]any)[0].(map[string]any)["results"]; ok {
					return batch.([]any)
				}
				return resp["results"].([]any)
			}
			want, have := ranking(intact), ranking(got)
			if len(have) != len(want) || len(have) == 0 {
				t.Fatalf("ranking has %d results, want %d", len(have), len(want))
			}
			for i := range want {
				w, h := want[i].(map[string]any), have[i].(map[string]any)
				wantName := w["name"]
				if i == 0 {
					wantName = ""
				}
				if h["table"] != w["table"] || h["score"] != w["score"] || h["name"] != wantName {
					t.Errorf("result %d = %v, want %v with name %q", i, h, w, wantName)
				}
			}
		})
	}
}
