package server

// Shard-over-HTTP endpoints (docs/SHARDING.md §"Shard-over-HTTP").
//
// Daemon side: every backend can serve as a remote shard through two
// routes:
//
//	POST /shard/search     one scatter leg (CRC32C envelope both ways)
//	POST /shard/artifacts  global-artifact bootstrap from the coordinator
//
// Coordinator side: WithRemoteShardStatus replaces /readyz's index
// lifecycle with the remote-replica breaker breakdown — the coordinator
// has no local index to track, its readiness is whether every shard has a
// healthy replica.

import (
	"fmt"
	"io"
	"net/http"

	"thetis/internal/remote"
)

// WithRemoteShardStatus mounts GET /readyz reporting the remote-shard
// replica breakdown snapshotted by fn (thetis.System.ShardStatuses in
// coordinator mode). The deployment is ready when every shard has at least
// one closed-breaker replica, degraded otherwise — it still answers
// searches, just with Truncated prefixes missing the dead shards. Takes
// precedence over WithReadiness.
func WithRemoteShardStatus(fn func() []remote.Status) Option {
	return func(s *Server) { s.remoteStatus = fn }
}

// maxShardBody bounds a /shard/* request body. Artifacts carry the whole
// corpus's informativeness table, so the cap matches the table-ingest one
// rather than the small search-request size.
const maxShardBody = 64 << 20

// handleShardSearch answers one remote scatter leg. Decode failures —
// malformed envelope, checksum mismatch from an in-flight bit flip,
// malformed payload — are the CLIENT's to retry, so they answer 400, never
// 500; the search itself cannot fail (panics are contained into Panicked
// stats by the backend).
func (s *Server) handleShardSearch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxShardBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	var req remote.SearchRequest
	if err := remote.Open(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	payload := s.sys.ServeShardSearch(r.Context(), req)
	sealed, err := remote.Seal(payload)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(sealed)
}

// handleShardArtifacts installs the coordinator's bootstrap payload.
// A rejected payload (bad index spec, no similarity selected, a read-only
// coordinator) is 422: the request was well-formed but this daemon cannot
// honor it.
func (s *Server) handleShardArtifacts(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxShardBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	var a remote.Artifacts
	if err := remote.Open(body, &a); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.sys.ApplyShardArtifacts(a); err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"applied": true})
}

// remoteReadiness is the coordinator's /readyz state (see
// WithRemoteShardStatus): per-shard, per-replica breaker breakdown.
func remoteReadiness(statuses []remote.Status) (IndexState, map[string]any) {
	healthy := 0
	for _, st := range statuses {
		for _, rep := range st.Replicas {
			if rep.Breaker == "closed" {
				healthy++
				break
			}
		}
	}
	state := StateReady
	if healthy < len(statuses) {
		state = StateDegraded
	}
	return state, map[string]any{
		"detail": fmt.Sprintf("%d/%d remote shards healthy", healthy, len(statuses)),
		"shards": statuses,
	}
}
