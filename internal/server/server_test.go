package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"thetis"
)

// demoSystem builds the miniature baseball system shared by the endpoint,
// fuzz, and lifecycle tests. testing.TB so fuzz targets can call it too.
func demoSystem(tb testing.TB) *thetis.System { return demoSystemSharded(tb, 1) }

// demoSystemSharded is the demo corpus hash-partitioned into n shards.
func demoSystemSharded(tb testing.TB, n int) *thetis.System {
	tb.Helper()
	g := thetis.NewGraph()
	triples := `
<onto/BaseballPlayer> <rdfs:subClassOf> <onto/Athlete> .
<onto/BaseballTeam>   <rdfs:subClassOf> <onto/Organisation> .
<res/santo> <rdf:type> <onto/BaseballPlayer> .
<res/santo> <rdfs:label> "Ron Santo" .
<res/banks> <rdf:type> <onto/BaseballPlayer> .
<res/banks> <rdfs:label> "Ernie Banks" .
<res/cubs>  <rdf:type> <onto/BaseballTeam> .
<res/cubs>  <rdfs:label> "Chicago Cubs" .
`
	if err := thetis.LoadTriples(g, strings.NewReader(triples)); err != nil {
		tb.Fatal(err)
	}
	sys := thetis.NewSharded(g, thetis.NewHashPartitioner(n))
	linker := thetis.NewDictionaryLinker(g)
	roster := thetis.NewTable("roster", []string{"Player", "Team"})
	roster.AppendValues("Ron Santo", "Chicago Cubs")
	thetis.LinkTable(roster, linker)
	sys.AddTable(roster)
	other := thetis.NewTable("profiles", []string{"Player"})
	other.AppendValues("Ernie Banks")
	thetis.LinkTable(other, linker)
	sys.AddTable(other)
	sys.UseTypeSimilarity()
	sys.BuildKeywordIndex()
	return sys
}

func demoServer(t *testing.T, opts ...Option) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(demoSystem(t), opts...))
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s status = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func postJSON(t *testing.T, url, body string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s status = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHealthz(t *testing.T) {
	ts := demoServer(t)
	out := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if out["status"] != "ok" {
		t.Errorf("healthz = %v", out)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := demoServer(t)
	out := getJSON(t, ts.URL+"/stats", http.StatusOK)
	if out["tables"].(float64) != 2 {
		t.Errorf("stats = %v", out)
	}
	if out["entities"].(float64) < 3 {
		t.Errorf("entities = %v", out["entities"])
	}
}

func TestTableEndpoint(t *testing.T) {
	ts := demoServer(t)
	out := getJSON(t, ts.URL+"/tables/0", http.StatusOK)
	if out["name"] != "roster" {
		t.Errorf("table 0 = %v", out)
	}
	rows := out["rows"].([]any)
	if len(rows) != 1 {
		t.Errorf("rows = %v", rows)
	}
	getJSON(t, ts.URL+"/tables/99", http.StatusNotFound)
	getJSON(t, ts.URL+"/tables/abc", http.StatusNotFound)
}

func TestSearchEndpoint(t *testing.T) {
	ts := demoServer(t)
	out := postJSON(t, ts.URL+"/search", `{"query": "Ron Santo | Chicago Cubs", "k": 5}`, http.StatusOK)
	results := out["results"].([]any)
	if len(results) == 0 {
		t.Fatalf("no results: %v", out)
	}
	first := results[0].(map[string]any)
	if first["name"] != "roster" || first["score"].(float64) != 1 {
		t.Errorf("first result = %v", first)
	}
}

func TestSearchEndpointErrors(t *testing.T) {
	ts := demoServer(t)
	postJSON(t, ts.URL+"/search", `{"k": 5}`, http.StatusBadRequest)                    // empty query
	postJSON(t, ts.URL+"/search", `{"query": "Unknown Person"}`, http.StatusBadRequest) // unresolvable
	postJSON(t, ts.URL+"/search", `{"query": "x", "bogus": 1}`, http.StatusBadRequest)  // unknown field
	postJSON(t, ts.URL+"/search", `not json`, http.StatusBadRequest)                    // malformed
}

// paddedBody is head + spaces + tail, size bytes in all: a well-formed
// request whose one string value is padded out to an exact body length.
func paddedBody(head, tail string, size int) string {
	return head + strings.Repeat(" ", size-len(head)-len(tail)) + tail
}

// TestSearchBodyCap posts each search endpoint a well-formed body exactly at
// maxSearchBody (served) and one byte over (413, refused at the cap rather
// than buffered and decoded).
func TestSearchBodyCap(t *testing.T) {
	ts := demoServer(t)
	for _, tc := range []struct{ path, head, tail string }{
		{"/search", `{"query": "Ron Santo`, `"}`},
		{"/search/batch", `{"queries": ["Ron Santo`, `"]}`},
		{"/hybrid", `{"query": "Ron Santo`, `"}`},
		{"/keyword", `{"q": "ernie banks`, `"}`},
	} {
		postJSON(t, ts.URL+tc.path, paddedBody(tc.head, tc.tail, maxSearchBody), http.StatusOK)
		out := postJSON(t, ts.URL+tc.path, paddedBody(tc.head, tc.tail, maxSearchBody+1), http.StatusRequestEntityTooLarge)
		if msg, _ := out["error"].(string); !strings.Contains(msg, strconv.Itoa(maxSearchBody)) {
			t.Errorf("POST %s over the cap: error %q does not name the limit", tc.path, msg)
		}
	}
}

func TestKeywordEndpoint(t *testing.T) {
	ts := demoServer(t)
	out := postJSON(t, ts.URL+"/keyword", `{"q": "ernie banks"}`, http.StatusOK)
	results := out["results"].([]any)
	if len(results) == 0 {
		t.Fatal("no keyword results")
	}
	if results[0].(map[string]any)["name"] != "profiles" {
		t.Errorf("keyword top = %v", results[0])
	}
	postJSON(t, ts.URL+"/keyword", `{}`, http.StatusBadRequest)
}

func TestHybridEndpoint(t *testing.T) {
	ts := demoServer(t)
	out := postJSON(t, ts.URL+"/hybrid", `{"query": "Ron Santo | Chicago Cubs", "k": 4}`, http.StatusOK)
	results := out["results"].([]any)
	if len(results) == 0 {
		t.Fatal("no hybrid results")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := demoServer(t)
	// Issue one search so the pipeline metrics move.
	postJSON(t, ts.URL+"/search", `{"query": "Ron Santo | Chicago Cubs"}`, http.StatusOK)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE thetis_http_requests_total counter",
		`thetis_http_requests_total{endpoint="/search"}`,
		"# TYPE thetis_http_request_seconds histogram",
		`thetis_http_request_seconds_bucket{endpoint="/search",le="+Inf"}`,
		"# TYPE thetis_search_stage_seconds histogram",
		`thetis_search_stage_seconds_count{stage="score"}`,
		"thetis_search_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestDebugTraceEndpoint(t *testing.T) {
	ts := demoServer(t)
	out := getJSON(t, ts.URL+"/debug/trace?query="+url.QueryEscape("Ron Santo | Chicago Cubs")+"&k=3", http.StatusOK)
	trace, ok := out["trace"].(map[string]any)
	if !ok {
		t.Fatalf("no trace in response: %v", out)
	}
	if trace["name"] != "search" {
		t.Errorf("trace name = %v", trace["name"])
	}
	stages := trace["stages"].([]any)
	names := make(map[string]bool)
	for _, st := range stages {
		names[st.(map[string]any)["stage"].(string)] = true
	}
	for _, want := range []string{"mapping", "score", "rank"} {
		if !names[want] {
			t.Errorf("trace stages missing %q: %v", want, names)
		}
	}
	if out["candidates"].(float64) != 2 {
		t.Errorf("candidates = %v", out["candidates"])
	}

	getJSON(t, ts.URL+"/debug/trace", http.StatusBadRequest)
	getJSON(t, ts.URL+"/debug/trace?query=x&k=zero", http.StatusBadRequest)
	getJSON(t, ts.URL+"/debug/trace?query="+url.QueryEscape("Unknown Person"), http.StatusBadRequest)
}

func TestErrorCounterMoves(t *testing.T) {
	ts := demoServer(t)
	postJSON(t, ts.URL+"/search", `{"k": 5}`, http.StatusBadRequest)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	re := regexp.MustCompile(`thetis_http_errors_total\{endpoint="/search"\} ([0-9]+)`)
	m := re.FindStringSubmatch(string(body))
	if m == nil {
		t.Fatalf("no error counter for /search in:\n%s", body)
	}
	if n, _ := strconv.Atoi(m[1]); n < 1 {
		t.Errorf("error counter = %d, want >= 1", n)
	}
}

func TestPprofOptIn(t *testing.T) {
	ts := demoServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof must be off by default; status = %d", resp.StatusCode)
	}

	enabled := demoServer(t, WithPprof())
	resp, err = http.Get(enabled.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index with WithPprof: status = %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := demoServer(t)
	resp, err := http.Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /search status = %d, want 405", resp.StatusCode)
	}
}
