// Package server exposes a configured Thetis system over HTTP with a small
// JSON API, turning the library into the data-discovery service the paper's
// system (and any production deployment) ultimately is:
//
//	GET  /healthz           liveness probe
//	GET  /readyz            serving capacity: index lifecycle, remote shards, delta log
//	GET  /stats             corpus and KG statistics
//	GET  /tables/{id}       one table (name, attributes, rows, categories)
//	POST /tables            live ingestion of one annotated-JSON table
//	DELETE /tables/{id}     live removal (docs/LIVE_INDEX.md)
//	POST /search            semantic search  {"query": "...", "k": 10}
//	POST /search/batch      batched semantic search {"queries": [...], "k": 10}
//	POST /keyword           BM25 keyword search {"q": "...", "k": 10}
//	POST /hybrid            BM25-complemented semantic search
//	GET  /metrics           Prometheus text-format metrics
//	GET  /debug/trace       per-stage breakdown of one search (?query=…&k=…)
//	GET  /debug/ingest      quarantine summary of the corpus load (WithIngestReport)
//	GET  /debug/pprof/*     runtime profiles (opt-in via WithPprof)
//	POST /shard/search      one scatter leg for a remote coordinator
//	POST /shard/artifacts   global-artifact bootstrap from a coordinator
//
// The backend behind the handlers is the Backend interface, satisfied by
// *thetis.System, locally and in coordinator mode — a coordinator's
// scatter-gather shows at the HTTP surface only as shard labels in
// /debug/trace, thetis_shard_* metrics, and the per-replica breakdown on
// /readyz.
//
// Queries use the textual format of System.ParseQuery: entities separated
// by "|", tuples by newlines (or ";"). Every endpoint is instrumented with
// request/error counters and a latency histogram (docs/OBSERVABILITY.md).
// The four POST search endpoints read at most 1 MiB of body (a larger one
// answers 413) and cap k at 1000.
//
// The search-type endpoints (/search, /keyword, /hybrid, /debug/trace) run
// behind a request-lifecycle guard: an optional bounded-concurrency
// semaphore that sheds excess load with 429 + Retry-After
// (WithMaxInFlight), and an optional per-request deadline
// (WithSearchTimeout) under which an expiring search returns its
// best-effort partial ranking marked "truncated" rather than an error.
// Run/Serve provide the production harness with signal-driven graceful
// shutdown that drains in-flight queries.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"thetis"
	"thetis/internal/lake"
	"thetis/internal/obs"
	"thetis/internal/remote"
)

// Backend is the serving surface the HTTP layer needs, implemented by
// *thetis.System. It stays an interface so tests and the benchmark harness
// can decorate a System (spans around ParseQuery, injected failures); the
// handlers assert no other interface on it.
type Backend interface {
	ParseQuery(text string) (thetis.Query, error)
	SearchStatsContext(ctx context.Context, q thetis.Query, k int) ([]thetis.Result, thetis.SearchStats)
	SearchBatchContext(ctx context.Context, queries []thetis.Query, k int) ([][]thetis.Result, []thetis.SearchStats)
	KeywordSearch(text string, k int) []thetis.TableID
	HybridSearchContext(ctx context.Context, q thetis.Query, keywords string, k int) []thetis.TableID
	Stats() lake.Stats
	GraphCounts() thetis.GraphCounts
	NumTables() int
	Table(id thetis.TableID) *thetis.Table
	AddTableJSON(data []byte) (thetis.TableID, error)
	RemoveTable(id thetis.TableID) error
	IndexEpoch() uint64
	// DeltaLogError is the write-ahead log's sticky failure (nil while
	// mutations are durable); it must not block behind maintenance.
	DeltaLogError() error
	// ServeShardSearch answers one remote scatter leg in this backend's own
	// table IDs; ApplyShardArtifacts installs a coordinator's global
	// artifacts.
	ServeShardSearch(ctx context.Context, req remote.SearchRequest) remote.SearchPayload
	ApplyShardArtifacts(a remote.Artifacts) error
}

var _ Backend = (*thetis.System)(nil)

// Server is an http.Handler serving one Thetis backend. The underlying
// system must be fully configured (similarity selected; keyword index built
// when the keyword/hybrid endpoints are used). Tables may be added and
// removed and indexes hot-swapped while it serves (docs/LIVE_INDEX.md);
// similarity selection stays setup-time.
type Server struct {
	sys     Backend
	mux     *http.ServeMux
	reg     *obs.Registry
	pprof   bool
	timeout time.Duration
	sem     chan struct{}
	ready   *Readiness
	ingest  *obs.IngestReport

	// remoteStatus, when set (WithRemoteShardStatus), snapshots the
	// remote-shard replica breakdown for the coordinator's /readyz.
	remoteStatus func() []remote.Status

	// testHookRequest, when set, runs inside the lifecycle guard of every
	// search-type request — after semaphore admission and deadline
	// arming, before the handler. Tests use it to hold requests in flight
	// deterministically.
	testHookRequest func(*http.Request)
}

// Option configures a Server.
type Option func(*Server)

// WithPprof mounts net/http/pprof's profile handlers under /debug/pprof/.
// Off by default: profiles expose internals and cost CPU while running, so
// deployments opt in (thetisd -pprof).
func WithPprof() Option {
	return func(s *Server) { s.pprof = true }
}

// WithRegistry serves r on /metrics instead of obs.Default. The search
// pipeline's own metrics always live on obs.Default, so overriding the
// registry detaches /metrics from them — useful mainly in tests.
func WithRegistry(r *obs.Registry) Option {
	return func(s *Server) { s.reg = r }
}

// WithSearchTimeout bounds every search-type request (/search, /keyword,
// /hybrid, /debug/trace) to d: the request context gets a deadline, the
// search pipeline cooperatively truncates when it expires, and the response
// carries the partial ranking with "truncated": true. d <= 0 leaves
// requests unbounded (the default).
func WithSearchTimeout(d time.Duration) Option {
	return func(s *Server) { s.timeout = d }
}

// WithMaxInFlight admits at most n search-type requests concurrently;
// excess load is shed immediately with 429 Too Many Requests and a
// Retry-After header instead of queueing into memory. n <= 0 disables
// shedding (the default).
func WithMaxInFlight(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.sem = make(chan struct{}, n)
		} else {
			s.sem = nil
		}
	}
}

// WithReadiness makes GET /readyz report the index lifecycle tracked by rd
// (see NewReadiness, ActivateIndex). Without it a system configured
// synchronously is ready whenever it is alive.
func WithReadiness(rd *Readiness) Option {
	return func(s *Server) { s.ready = rd }
}

// WithIngestReport mounts GET /debug/ingest serving the quarantine
// summary of the corpus load (accepted/skipped counts plus a bounded
// sample of rejected records).
func WithIngestReport(ir *obs.IngestReport) Option {
	return func(s *Server) { s.ingest = ir }
}

// New wraps a configured backend (a *thetis.System).
func New(sys Backend, opts ...Option) *Server {
	s := &Server{sys: sys, mux: http.NewServeMux(), reg: obs.Default}
	for _, opt := range opts {
		opt(s)
	}
	s.handle("GET", "/healthz", s.handleHealth)
	s.handle("GET", "/readyz", s.handleReady)
	if s.ingest != nil {
		s.handle("GET", "/debug/ingest", s.handleIngest)
	}
	s.handle("GET", "/stats", s.handleStats)
	s.handle("GET", "/tables/{id}", s.handleTable)
	s.handle("POST", "/tables", s.handleAddTable)
	s.handle("DELETE", "/tables/{id}", s.handleRemoveTable)
	s.handle("POST", "/search", s.guard("/search", s.handleSearch))
	s.handle("POST", "/search/batch", s.guard("/search/batch", s.handleSearchBatch))
	s.handle("POST", "/keyword", s.guard("/keyword", s.handleKeyword))
	s.handle("POST", "/hybrid", s.guard("/hybrid", s.handleHybrid))
	s.handle("GET", "/debug/trace", s.guard("/debug/trace", s.handleTrace))
	s.handle("POST", "/shard/search", s.handleShardSearch)
	s.handle("POST", "/shard/artifacts", s.handleShardArtifacts)
	refreshRuntime, metrics := obs.GoRuntimeMetrics(s.reg), s.reg.Handler()
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		refreshRuntime()
		metrics.ServeHTTP(w, r)
	})
	if s.pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// statusWriter captures the response status for the error counter, and
// whether anything was written yet (so panic recovery knows if a 500 can
// still be sent).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	if w.wrote {
		return
	}
	w.wrote = true
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// handle mounts an instrumented handler: per-endpoint request count, error
// count (status >= 400), and latency histogram. The endpoint label is the
// route pattern, so /tables/{id} stays one series regardless of id.
//
// It also contains handler panics: a panicking request is recovered into a
// 500 (when the response has not started) and counted on
// thetis_panics_total{site="http"} instead of tearing down the connection
// — one poisoned request must not degrade the daemon.
func (s *Server) handle(method, pattern string, h http.HandlerFunc) {
	requests := obs.HTTPRequestsTotal(s.reg, pattern)
	errCount := obs.HTTPErrorsTotal(s.reg, pattern)
	latency := obs.HTTPRequestSeconds(s.reg, pattern)
	panics := obs.PanicsTotal(s.reg, "http")
	s.mux.HandleFunc(method+" "+pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				panics.Inc()
				if sw.wrote {
					// Mid-stream panic: the status is already on the wire;
					// record the failure for the error counter only.
					sw.status = http.StatusInternalServerError
				} else {
					writeError(sw, http.StatusInternalServerError,
						fmt.Errorf("internal error: %v", rec))
				}
			}
			latency.Observe(time.Since(start).Seconds())
			requests.Inc()
			if sw.status >= 400 {
				errCount.Inc()
			}
		}()
		h(sw, r)
	})
}

// errBusy is the 429 body when the in-flight limit sheds a request.
var errBusy = errors.New("server at capacity, retry later")

// guard wraps a search-type handler with the request lifecycle: semaphore
// admission (shed with 429 + Retry-After when full), the in-flight gauge,
// and the per-request deadline. After the handler returns, the context's
// fate feeds the timeout/cancellation counters. The instrumentation of
// handle() stays outermost, so sheds are counted as requests and errors.
func (s *Server) guard(pattern string, h http.HandlerFunc) http.HandlerFunc {
	shed := obs.HTTPShedTotal(s.reg, pattern)
	timeouts := obs.HTTPTimeoutsTotal(s.reg, pattern)
	cancels := obs.HTTPCancellationsTotal(s.reg, pattern)
	inflight := obs.HTTPInFlight(s.reg)
	return func(w http.ResponseWriter, r *http.Request) {
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				shed.Inc()
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, errBusy)
				return
			}
		}
		inflight.Add(1)
		defer inflight.Add(-1)
		ctx := r.Context()
		if s.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if s.testHookRequest != nil {
			s.testHookRequest(r)
		}
		h(w, r)
		switch ctx.Err() {
		case context.DeadlineExceeded:
			timeouts.Inc()
		case context.Canceled:
			cancels.Inc()
		}
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SearchRequest is the body of POST /search and /hybrid.
type SearchRequest struct {
	// Query holds entity tuples: entities separated by "|", tuples by
	// newline or ";".
	Query string `json:"query"`
	// K is the number of results (default 10).
	K int `json:"k,omitempty"`
	// Keywords overrides the BM25 keywords for /hybrid (default: the query
	// text with separators stripped).
	Keywords string `json:"keywords,omitempty"`
}

// SearchResult is one result row.
type SearchResult struct {
	Table int     `json:"table"`
	Name  string  `json:"name"`
	Score float64 `json:"score,omitempty"`
}

// SearchResponse is the body returned by the search endpoints.
type SearchResponse struct {
	Results []SearchResult `json:"results"`
	// Candidates reports search effort: the tables the prefilter left for
	// scoring (semantic search only).
	Candidates int `json:"candidates,omitempty"`
	// TookMicros is the server-side search duration.
	TookMicros int64 `json:"took_us"`
	// Truncated marks a search cut short by the per-request deadline (or a
	// client cancellation): Results is the correctly ranked prefix of
	// tables scored before the cutoff — the well-formed timeout response,
	// not an error.
	Truncated bool `json:"truncated,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleIngest serves the quarantine summary of the corpus load: per-kind
// accepted/skipped counts and a bounded sample of rejected records.
func (s *Server) handleIngest(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.ingest.Summary())
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.sys.Stats()
	// GraphCounts snapshots the KG counters under the backend's serving
	// lock, so /stats never races a POST /tables interning new entities.
	g := s.sys.GraphCounts()
	writeJSON(w, http.StatusOK, map[string]any{
		"tables":        st.Tables,
		"mean_rows":     st.MeanRows,
		"mean_columns":  st.MeanColumns,
		"mean_coverage": st.MeanCoverage,
		"entities":      g.Entities,
		"types":         g.Types,
		"predicates":    g.Predicates,
		"edges":         g.Edges,
		"epoch":         s.sys.IndexEpoch(),
	})
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	// A nil table covers unassigned IDs AND removed (tombstoned) ones —
	// live mutation means "id < NumTables" is no longer the liveness test.
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("no table %q", r.PathValue("id")))
		return
	}
	t := s.sys.Table(thetis.TableID(id))
	if t == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no table %q", r.PathValue("id")))
		return
	}
	rows := make([][]string, t.NumRows())
	for i, row := range t.Rows {
		cells := make([]string, len(row))
		for j, c := range row {
			cells[j] = c.Value
		}
		rows[i] = cells
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":         id,
		"name":       t.Name,
		"attributes": t.Attributes,
		"rows":       rows,
		"categories": t.Categories,
		"coverage":   t.LinkCoverage(),
	})
}

// maxTableBody bounds a POST /tables body; it matches the delta log's
// per-record payload cap so anything accepted here is also loggable.
const maxTableBody = 64 << 20

// handleAddTable ingests one table in the annotated JSON interchange
// format (the same one-object-per-line layout as JSONL corpora) and folds
// it into every live index. Responds 201 with the assigned ID and the new
// corpus epoch.
func (s *Server) handleAddTable(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxTableBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	id, err := s.sys.AddTableJSON(body)
	if err != nil {
		if errors.Is(err, thetis.ErrReadOnly) {
			writeError(w, http.StatusMethodNotAllowed, err)
		} else {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad table: %w", err))
		}
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"id":    int(id),
		"epoch": s.sys.IndexEpoch(),
	})
}

// handleRemoveTable removes a table from the corpus and every live index.
// The ID is tombstoned, never reused; a second DELETE answers 404.
func (s *Server) handleRemoveTable(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("no table %q", r.PathValue("id")))
		return
	}
	if err := s.sys.RemoveTable(thetis.TableID(id)); err != nil {
		switch {
		case errors.Is(err, thetis.ErrNoSuchTable):
			writeError(w, http.StatusNotFound, err)
		case errors.Is(err, thetis.ErrReadOnly):
			writeError(w, http.StatusMethodNotAllowed, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"removed": id,
		"epoch":   s.sys.IndexEpoch(),
	})
}

// maxSearchBody bounds the body of POST /search, /search/batch, /hybrid
// and /keyword, so an oversized body is refused while it streams in rather
// than buffered whole ahead of the -timeout and -max-inflight guards. 1 MiB
// leaves 4 KiB a query at the maxBatchQueries limit.
const maxSearchBody = 1 << 20

// searchBodyDecoder returns a JSON decoder over at most maxSearchBody bytes
// of the request body.
func searchBodyDecoder(w http.ResponseWriter, r *http.Request) *json.Decoder {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSearchBody))
}

// clampK applies the result-count rule of the POST search endpoints: 10
// when unset, never more than 1000.
func clampK(k int) int {
	if k <= 0 {
		return 10
	}
	return min(k, 1000)
}

// writeParseError answers a request whose body failed to parse: 413 when
// it ran past maxSearchBody, 400 otherwise.
func writeParseError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

// parseRequest decodes and validates a search request body.
func parseRequest(w http.ResponseWriter, r *http.Request) (SearchRequest, error) {
	var req SearchRequest
	dec := searchBodyDecoder(w, r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("bad request body: %w", err)
	}
	if strings.TrimSpace(req.Query) == "" {
		return req, errors.New("query must not be empty")
	}
	req.K = clampK(req.K)
	return req, nil
}

// tableName is the name a result row carries. The search has released the
// read lock by the time its response is built, so a ranked table may have
// been removed since (Backend.Table is nil for a tombstoned ID): it keeps
// its place in the ranking, with an empty name.
func (s *Server) tableName(id thetis.TableID) string {
	if t := s.sys.Table(id); t != nil {
		return t.Name
	}
	return ""
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	req, err := parseRequest(w, r)
	if err != nil {
		writeParseError(w, err)
		return
	}
	q, err := s.sys.ParseQuery(strings.ReplaceAll(req.Query, ";", "\n"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	results, stats := s.sys.SearchStatsContext(r.Context(), q, req.K)
	writeJSON(w, http.StatusOK, s.searchResponse(results, stats))
}

// searchResponse is the wire form of one semantic search's ranking and
// stats, for POST /search and for each element of POST /search/batch.
func (s *Server) searchResponse(results []thetis.Result, stats thetis.SearchStats) SearchResponse {
	resp := SearchResponse{
		Results:    make([]SearchResult, len(results)),
		Candidates: stats.Candidates,
		TookMicros: stats.TotalTime.Microseconds(),
		Truncated:  stats.Truncated,
	}
	for i, res := range results {
		resp.Results[i] = SearchResult{
			Table: int(res.Table),
			Name:  s.tableName(res.Table),
			Score: res.Score,
		}
	}
	return resp
}

func (s *Server) handleKeyword(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Q string `json:"q"`
		K int    `json:"k,omitempty"`
	}
	if err := searchBodyDecoder(w, r).Decode(&req); err != nil {
		writeParseError(w, fmt.Errorf("body must be {\"q\": \"keywords\"}: %w", err))
		return
	}
	if strings.TrimSpace(req.Q) == "" {
		writeError(w, http.StatusBadRequest, errors.New("body must be {\"q\": \"keywords\"}"))
		return
	}
	req.K = clampK(req.K)
	ids := s.sys.KeywordSearch(req.Q, req.K)
	resp := SearchResponse{Results: make([]SearchResult, len(ids))}
	for i, id := range ids {
		resp.Results[i] = SearchResult{Table: int(id), Name: s.tableName(id)}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHybrid(w http.ResponseWriter, r *http.Request) {
	req, err := parseRequest(w, r)
	if err != nil {
		writeParseError(w, err)
		return
	}
	q, err := s.sys.ParseQuery(strings.ReplaceAll(req.Query, ";", "\n"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	keywords := req.Keywords
	if keywords == "" {
		keywords = strings.NewReplacer("|", " ", ";", " ", "\n", " ").Replace(req.Query)
	}
	ids := s.sys.HybridSearchContext(r.Context(), q, keywords, req.K)
	resp := SearchResponse{Results: make([]SearchResult, len(ids))}
	for i, id := range ids {
		resp.Results[i] = SearchResult{Table: int(id), Name: s.tableName(id)}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTrace runs one search and returns its per-stage breakdown as JSON:
//
//	GET /debug/trace?query=res%2Fa%20%7C%20res%2Fb&k=10
//
// The response carries the obs.Trace (stage names, wall/CPU microseconds,
// item counts) plus the result and candidate counts, without the result
// list itself — it is a diagnostics endpoint, not a search endpoint.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	text := r.URL.Query().Get("query")
	if strings.TrimSpace(text) == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing ?query= parameter"))
		return
	}
	k := 10
	if ks := r.URL.Query().Get("k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad k %q", ks))
			return
		}
		if v > 1000 {
			v = 1000
		}
		k = v
	}
	q, err := s.sys.ParseQuery(strings.ReplaceAll(text, ";", "\n"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	results, stats := s.sys.SearchStatsContext(r.Context(), q, k)
	writeJSON(w, http.StatusOK, map[string]any{
		"trace":      stats.Trace,
		"candidates": stats.Candidates,
		"scored":     stats.Scored,
		"pruned":     stats.Pruned,
		"results":    len(results),
		"truncated":  stats.Truncated,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
