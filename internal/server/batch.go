// POST /search/batch (docs/THROUGHPUT.md): N queries answered against one
// corpus snapshot in one round trip.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"thetis"
)

// maxBatchQueries bounds one POST /search/batch request. A batch holds
// the serving read lock for its whole duration, so an unbounded batch
// would let one request monopolize the corpus snapshot.
const maxBatchQueries = 256

// BatchSearchRequest is the body of POST /search/batch.
type BatchSearchRequest struct {
	// Queries holds one textual query per element (System.ParseQuery
	// format: entities separated by "|", tuples by newline or ";").
	Queries []string `json:"queries"`
	// K is the per-query result count (default 10, capped at 1000).
	K int `json:"k,omitempty"`
}

// BatchSearchResponse is the body returned by POST /search/batch:
// one SearchResponse per query, in request order, plus the wall time of
// the whole batch.
type BatchSearchResponse struct {
	Results    []SearchResponse `json:"results"`
	TookMicros int64            `json:"took_us"`
	// Truncated reports that the batch was cut short by the per-request
	// deadline or a client cancellation; each element's own Truncated flag
	// is set too, and its Results are a correctly ranked prefix.
	Truncated bool `json:"truncated,omitempty"`
}

// parseBatchRequest decodes and validates a batch search request body.
// Validation is all-or-nothing: any empty or over-limit input rejects the
// whole batch with an error naming the offending query index, so partial
// batches are never silently executed (error composition,
// docs/THROUGHPUT.md).
func parseBatchRequest(w http.ResponseWriter, r *http.Request) (BatchSearchRequest, error) {
	var req BatchSearchRequest
	dec := searchBodyDecoder(w, r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("bad request body: %w", err)
	}
	if len(req.Queries) == 0 {
		return req, errors.New("queries must not be empty")
	}
	if len(req.Queries) > maxBatchQueries {
		return req, fmt.Errorf("batch holds %d queries, limit is %d", len(req.Queries), maxBatchQueries)
	}
	for i, q := range req.Queries {
		if strings.TrimSpace(q) == "" {
			return req, fmt.Errorf("query %d must not be empty", i)
		}
	}
	req.K = clampK(req.K)
	return req, nil
}

// handleSearchBatch serves POST /search/batch. Parse errors —
// body decoding and per-query entity resolution alike — reject the whole
// batch with 400 before any scoring starts; execution-time degradation
// (deadline, cancellation) instead succeeds with per-query Truncated
// prefixes, mirroring POST /search.
func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	req, err := parseBatchRequest(w, r)
	if err != nil {
		writeParseError(w, err)
		return
	}
	queries := make([]thetis.Query, len(req.Queries))
	for i, text := range req.Queries {
		q, err := s.sys.ParseQuery(strings.ReplaceAll(text, ";", "\n"))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
			return
		}
		queries[i] = q
	}
	start := time.Now()
	results, stats := s.sys.SearchBatchContext(r.Context(), queries, req.K)
	resp := BatchSearchResponse{
		Results:    make([]SearchResponse, len(queries)),
		TookMicros: time.Since(start).Microseconds(),
	}
	for i := range queries {
		resp.Results[i] = s.searchResponse(results[i], stats[i])
		resp.Truncated = resp.Truncated || stats[i].Truncated
	}
	writeJSON(w, http.StatusOK, resp)
}
