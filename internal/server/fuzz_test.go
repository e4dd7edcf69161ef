package server

// Fuzzing for the query-request JSON decoding path: arbitrary request
// bodies must never panic the server or produce a 5xx, and every response
// must be well-formed JSON. Seeds live in testdata/fuzz/ (checked in) plus
// the f.Add calls below; `go test -run '^Fuzz'` replays them as a
// regression suite, `go test -fuzz FuzzSearchRequestDecode` explores.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"thetis/internal/remote"
)

func FuzzSearchRequestDecode(f *testing.F) {
	f.Add(`{"query": "Ron Santo | Chicago Cubs", "k": 5}`)
	f.Add(`{"query": "Ron Santo; Ernie Banks"}`)
	f.Add(`{"query": ""}`)
	f.Add(`{"query": "x", "bogus": 1}`)
	f.Add(`{"k": -3}`)
	f.Add(`{"query": "Ron Santo", "k": 99999999}`)
	f.Add(`{"query": "res/santo", "keywords": "cubs"}`)
	f.Add(`not json at all`)
	f.Add(`{"query": 42}`)
	f.Add(`{"query": "\u0000\ufffd"}`)
	f.Add(``)
	f.Add(`[]`)
	f.Add(`{"query": "a|b|c|d|e|f\ng|h", "k": 1}` + strings.Repeat(" ", 64))
	// exactly at the body cap
	f.Add(paddedBody(`{"query": "Ron Santo`, `"}`, maxSearchBody))

	srv := New(demoSystem(f))
	f.Fuzz(func(t *testing.T, body string) {
		for _, path := range []string{"/search", "/hybrid"} {
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("POST %s %q: status %d (must be 4xx, never 5xx):\n%s",
					path, body, rec.Code, rec.Body.String())
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("POST %s %q: invalid JSON response:\n%s", path, body, rec.Body.String())
			}
			if rec.Code == http.StatusOK {
				var resp SearchResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("POST %s %q: 200 body not a SearchResponse: %v", path, body, err)
				}
			}
		}
	})
}

// FuzzSearchBatchDecode covers POST /search/batch (docs/THROUGHPUT.md):
// arbitrary bodies must never panic or 5xx, and a 200 must decode as a
// BatchSearchResponse whose per-query results arrive in request order.
func FuzzSearchBatchDecode(f *testing.F) {
	f.Add(`{"queries": ["Ron Santo | Chicago Cubs"], "k": 5}`)
	f.Add(`{"queries": ["Ron Santo", "Ernie Banks | Chicago Cubs"]}`)
	f.Add(`{"queries": []}`)
	f.Add(`{"queries": ["Ron Santo", ""]}`)
	f.Add(`{"queries": [""]}`)
	f.Add(`{"queries": "Ron Santo"}`)
	f.Add(`{"queries": [42]}`)
	f.Add(`{"queries": ["a;b", "c|d\ne"], "k": -1}`)
	f.Add(`{"queries": ["Ron Santo"], "k": 99999999}`)
	f.Add(`{"queries": ["Ron Santo"], "bogus": true}`)
	f.Add(`{"query": "Ron Santo"}`) // single-search shape on the batch endpoint
	// exactly at the body cap
	f.Add(paddedBody(`{"queries": ["Ron Santo`, `"]}`, maxSearchBody))
	f.Add("{\"queries\": [\"\u0000\ufffd\"]}")
	f.Add(`not json at all`)
	f.Add(``)
	f.Add(`[]`)

	srv := New(demoSystem(f))
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/search/batch", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("POST /search/batch %q: status %d (must be 4xx/200, never 5xx):\n%s",
				body, rec.Code, rec.Body.String())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("POST /search/batch %q: invalid JSON response:\n%s", body, rec.Body.String())
		}
		if rec.Code == http.StatusOK {
			var resp BatchSearchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("POST /search/batch %q: 200 body not a BatchSearchResponse: %v", body, err)
			}
			var in BatchSearchRequest
			if err := json.Unmarshal([]byte(body), &in); err == nil && len(resp.Results) != len(in.Queries) {
				t.Fatalf("POST /search/batch %q: %d results for %d queries",
					body, len(resp.Results), len(in.Queries))
			}
		}
	})
}

// FuzzShardSearchDecode covers the scatter-leg endpoint POST /shard/search
// (docs/SHARDING.md §"Shard-over-HTTP"): its body is a CRC32C envelope
// around a remote.SearchRequest, so the decoder has two layers to confuse —
// the envelope (bad JSON, wrong checksum, truncated payload) and the
// payload (wrong types, absurd K, unknown URIs). Whatever arrives, the
// daemon must answer 4xx/200 with valid JSON — a coordinator retries 5xx,
// so a decode bug that 500s would turn one malformed request into a
// retry storm.
func FuzzShardSearchDecode(f *testing.F) {
	seal := func(v any) string {
		b, err := remote.Seal(v)
		if err != nil {
			f.Fatal(err)
		}
		return string(b)
	}
	// Well-formed legs: known and unknown entity URIs, forced full scan,
	// negative and huge K, empty tuples.
	f.Add(seal(remote.SearchRequest{Tuples: [][]string{{"res/santo", "res/cubs"}}, K: 5}))
	f.Add(seal(remote.SearchRequest{Tuples: [][]string{{"res/nobody"}}, K: 1, ForceFullScan: true}))
	f.Add(seal(remote.SearchRequest{Tuples: [][]string{{}}, K: -1}))
	f.Add(seal(remote.SearchRequest{K: 99999999}))
	f.Add(seal(remote.SearchRequest{Tuples: [][]string{{"\x00\ufffd"}}, K: 2}))
	// Envelope-layer garbage: no envelope, wrong checksum, truncated and
	// type-confused payloads.
	f.Add(`{"tuples": [["res/santo"]], "k": 3}`) // bare payload, no envelope
	f.Add(`{"crc32c": 0, "payload": {"k": 1}}`)  // checksum mismatch
	f.Add(`{"crc32c": 898466679, "payload": "not an object"}`)
	f.Add(`{"crc32c": "nan", "payload": null}`)
	f.Add(`not json at all`)
	f.Add(``)
	f.Add(seal([]int{1, 2, 3}))              // valid envelope, wrong payload shape
	f.Add(seal(map[string]any{"k": "five"})) // type confusion inside payload

	srv := New(demoSystem(f))
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/shard/search", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("POST /shard/search %q: status %d (must be 4xx/200, never 5xx):\n%s",
				body, rec.Code, rec.Body.String())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("POST /shard/search %q: invalid JSON response:\n%s", body, rec.Body.String())
		}
		if rec.Code == http.StatusOK {
			// A 200 must be a verifiable envelope around a SearchPayload —
			// the client rejects anything else and would retry forever.
			var p remote.SearchPayload
			if err := remote.Open(rec.Body.Bytes(), &p); err != nil {
				t.Fatalf("POST /shard/search %q: 200 body not a sealed SearchPayload: %v", body, err)
			}
		}
	})
}

// FuzzKeywordRequestDecode covers the /keyword endpoint's independent
// decoder the same way.
func FuzzKeywordRequestDecode(f *testing.F) {
	f.Add(`{"q": "ernie banks"}`)
	f.Add(`{"q": "", "k": 2}`)
	f.Add(`{"q": 7}`)
	f.Add(`garbage`)
	f.Add(``)

	srv := New(demoSystem(f))
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/keyword", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("POST /keyword %q: status %d:\n%s", body, rec.Code, rec.Body.String())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("POST /keyword %q: invalid JSON response:\n%s", body, rec.Body.String())
		}
	})
}
