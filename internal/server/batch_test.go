package server

// POST /search/batch endpoint tests (docs/THROUGHPUT.md): request-order
// responses that match sequential /search answers, all-or-nothing parse
// error composition naming the offending query, and the batch limits.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"thetis"
)

func newPost(path, body string) (*http.Request, *httptest.ResponseRecorder) {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	return req, httptest.NewRecorder()
}

func postBatch(t *testing.T, url, body string, wantStatus int) (BatchSearchResponse, string) {
	t.Helper()
	resp, err := http.Post(url+"/search/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	dec := json.NewDecoder(resp.Body)
	var out BatchSearchResponse
	if resp.StatusCode == http.StatusOK {
		if err := dec.Decode(&out); err != nil {
			t.Fatal(err)
		}
	} else {
		var e map[string]any
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%v", e["error"])
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /search/batch status = %d, want %d (%s)", resp.StatusCode, wantStatus, buf.String())
	}
	return out, buf.String()
}

// TestBatchEndpointMatchesSequential checks that a batch answer is, query
// by query and in request order, the answer /search gives for the same
// query.
func TestBatchEndpointMatchesSequential(t *testing.T) {
	ts := demoServer(t)
	queries := []string{"Ron Santo | Chicago Cubs", "Ernie Banks", "Chicago Cubs"}
	body, _ := json.Marshal(map[string]any{"queries": queries, "k": 5})
	batch, _ := postBatch(t, ts.URL, string(body), http.StatusOK)
	if len(batch.Results) != len(queries) {
		t.Fatalf("batch returned %d results for %d queries", len(batch.Results), len(queries))
	}
	for i, q := range queries {
		single := postJSON(t, ts.URL+"/search", fmt.Sprintf(`{"query": %q, "k": 5}`, q), http.StatusOK)
		wantRaw, _ := json.Marshal(single["results"])
		gotRaw, _ := json.Marshal(batch.Results[i].Results)
		// Compare through JSON so the single endpoint's map shape and the
		// typed batch response normalize identically.
		var want, got []SearchResult
		if err := json.Unmarshal(wantRaw, &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(gotRaw, &got); err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("query %d (%q): batch %d results, sequential %d", i, q, len(got), len(want))
		}
		for j := range want {
			if want[j] != got[j] {
				t.Errorf("query %d (%q) result %d: batch %+v, sequential %+v", i, q, j, got[j], want[j])
			}
		}
	}
}

// TestBatchEndpointErrorComposition checks the all-or-nothing contract: a
// bad query anywhere rejects the whole batch with 400 naming its index,
// and nothing about the well-formed queries leaks into the response.
func TestBatchEndpointErrorComposition(t *testing.T) {
	ts := demoServer(t)
	for _, tc := range []struct {
		body string
		want string
	}{
		{`{"queries": ["Ron Santo", ""], "k": 3}`, "query 1"},
		{`{"queries": ["", "Ron Santo"], "k": 3}`, "query 0"},
		{`{"queries": ["Ron Santo", "res/unknown-entity-xyz"]}`, "query 1"},
		{`{"queries": []}`, "queries must not be empty"},
		{`{"queries": ["x"], "bogus": 1}`, "bad request body"},
	} {
		_, errMsg := postBatch(t, ts.URL, tc.body, http.StatusBadRequest)
		if !strings.Contains(errMsg, tc.want) {
			t.Errorf("body %s: error %q does not mention %q", tc.body, errMsg, tc.want)
		}
	}
}

// TestBatchEndpointLimit checks the batch-size bound: one request past
// maxBatchQueries is rejected before any parsing or scoring.
func TestBatchEndpointLimit(t *testing.T) {
	ts := demoServer(t)
	queries := make([]string, maxBatchQueries+1)
	for i := range queries {
		queries[i] = "Ron Santo"
	}
	body, _ := json.Marshal(map[string]any{"queries": queries})
	_, errMsg := postBatch(t, ts.URL, string(body), http.StatusBadRequest)
	if !strings.Contains(errMsg, "limit") {
		t.Errorf("oversized batch error = %q, want mention of the limit", errMsg)
	}
}

// TestBatchEndpointSharded runs the same endpoint against a coordinator over
// two remote shard daemons, where every query of the batch scatters over
// both shards.
func TestBatchEndpointSharded(t *testing.T) {
	kgEnv, _, hsq := hsEnv(t)
	d := buildRemoteDeployment(t, "batch", 2, 1, thetis.RemoteOptions{}, nil)
	d.bootstrap(t)
	srv := New(d.coord)
	var queries []string
	for _, q := range hsq[:4] {
		tuples := make([]string, len(q))
		for i, tup := range q {
			uris := make([]string, len(tup))
			for j, e := range tup {
				uris[j] = kgEnv.Graph.URI(e)
			}
			tuples[i] = strings.Join(uris, " | ")
		}
		queries = append(queries, strings.Join(tuples, ";"))
	}
	body, _ := json.Marshal(map[string]any{"queries": queries, "k": 5})
	req, rec := newPost("/search/batch", string(body))
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("sharded batch status = %d: %s", rec.Code, rec.Body.String())
	}
	var batch BatchSearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(queries) {
		t.Fatalf("batch returned %d results for %d queries", len(batch.Results), len(queries))
	}
	for i, q := range queries {
		sreq, srec := newPost("/search", fmt.Sprintf(`{"query": %q, "k": 5}`, q))
		srv.ServeHTTP(srec, sreq)
		if srec.Code != http.StatusOK {
			t.Fatalf("sequential search status = %d", srec.Code)
		}
		var single SearchResponse
		if err := json.Unmarshal(srec.Body.Bytes(), &single); err != nil {
			t.Fatal(err)
		}
		if len(single.Results) != len(batch.Results[i].Results) {
			t.Fatalf("query %d (%q): batch %d results, sequential %d",
				i, q, len(batch.Results[i].Results), len(single.Results))
		}
		for j := range single.Results {
			if single.Results[j] != batch.Results[i].Results[j] {
				t.Errorf("query %d (%q) result %d: batch %+v, sequential %+v",
					i, q, j, batch.Results[i].Results[j], single.Results[j])
			}
		}
	}
}
