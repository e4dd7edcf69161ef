package server

// Degraded-mode serving: the daemon binds its listener and answers searches
// immediately — brute force over the whole corpus, correct but slower —
// while every shard's LSEI prefilter builds in the background (or after a
// corrupt snapshot was rejected). Each shard's index is hot-swapped into
// the live System atomically as it lands, so one shard can still be
// building while the others already answer prefiltered, and searches stay
// correct throughout because a shard without an index serves brute force.
// GET /readyz reports the lifecycle so orchestrators can route bulk
// traffic only at full capacity, while /healthz stays a pure liveness
// probe.

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"thetis"
	"thetis/internal/obs"
)

// IndexState is the prefilter lifecycle phase reported on /readyz and the
// thetis_shard_index_state gauge.
type IndexState int32

const (
	// StateBuilding: no index yet; the initial build is in progress and
	// searches run brute force.
	StateBuilding IndexState = iota
	// StateDegraded: the index snapshot was rejected (corrupt) or a build
	// failed; searches run brute force while a rebuild is attempted.
	StateDegraded
	// StateReady: the LSEI is active; searches are prefiltered.
	StateReady
)

func (s IndexState) String() string {
	switch s {
	case StateBuilding:
		return "building"
	case StateDegraded:
		return "degraded"
	case StateReady:
		return "ready"
	default:
		return fmt.Sprintf("IndexState(%d)", int32(s))
	}
}

// Readiness tracks the index lifecycle of one shard. It is safe for
// concurrent use; the HTTP handlers read it while ActivateIndex's
// background build writes it.
type Readiness struct {
	state atomic.Int32
	gauge *obs.Gauge

	mu     sync.Mutex
	detail string
	since  time.Time
}

// NewReadinesses creates one lifecycle tracker per shard in the building
// state, each mirrored on thetis_shard_index_state{shard="i"} of r
// (obs.Default when nil). Pass the slice to WithReadiness and
// ActivateIndex.
func NewReadinesses(r *obs.Registry, n int) []*Readiness {
	out := make([]*Readiness, n)
	for i := range out {
		out[i] = &Readiness{gauge: obs.ShardIndexState(r, strconv.Itoa(i))}
		out[i].Set(StateBuilding, "index build pending")
	}
	return out
}

// Set transitions the lifecycle, recording a human-readable detail.
func (rd *Readiness) Set(state IndexState, detail string) {
	rd.state.Store(int32(state))
	rd.gauge.Set(float64(state))
	rd.mu.Lock()
	rd.detail = detail
	rd.since = time.Now()
	rd.mu.Unlock()
}

// State returns the current lifecycle phase.
func (rd *Readiness) State() IndexState { return IndexState(rd.state.Load()) }

// Snapshot returns the phase with its detail and transition time.
func (rd *Readiness) Snapshot() (state IndexState, detail string, since time.Time) {
	state = rd.State()
	rd.mu.Lock()
	detail, since = rd.detail, rd.since
	rd.mu.Unlock()
	return state, detail, since
}

// indexReadiness aggregates the per-shard lifecycles for /readyz: the
// overall state is the worst across shards (any degraded → degraded, else
// any building → building, else ready) with that shard's detail and
// transition time, plus the per-shard breakdown.
func indexReadiness(rds []*Readiness) (IndexState, map[string]any) {
	severity := [...]int{StateReady: 0, StateBuilding: 1, StateDegraded: 2}
	worst, body := StateReady, map[string]any{}
	shards := make([]map[string]any, len(rds))
	for i, rd := range rds {
		state, detail, since := rd.Snapshot()
		at := since.UTC().Format(time.RFC3339Nano)
		shards[i] = map[string]any{"shard": i, "state": state.String(), "detail": detail, "since": at}
		if i == 0 || severity[state] > severity[worst] {
			worst = state
			body["detail"], body["since"] = detail, at
		}
	}
	body["shards"] = shards
	return worst, body
}

// handleReady reports whether the daemon serves at full capacity. It serves
// correct results in every state — building and degraded just mean
// brute-force scans, a degraded coordinator Truncated prefixes — so /readyz
// answers 200 with the state by default. Orchestrators that should route
// traffic only at full capacity can ask with ?full=1, which answers 503
// until the state is ready.
//
// The state comes from the per-shard index lifecycles (WithReadiness) or
// the remote-replica breakdown (WithRemoteShardStatus); without either the
// daemon was configured synchronously and is ready whenever it is alive. A
// delta log that stopped logging overrides all of them with degraded: the
// daemon still answers, but accepted mutations are no longer durable.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	state, body := StateReady, map[string]any{"detail": "configured synchronously"}
	switch {
	case s.remoteStatus != nil:
		state, body = remoteReadiness(s.remoteStatus())
	case s.ready != nil:
		state, body = indexReadiness(s.ready)
	}
	if err := s.sys.DeltaLogError(); err != nil {
		state = StateDegraded
		body["detail"] = fmt.Sprintf("delta log stopped logging: %v (mutations since are not durable)", err)
	}
	body["state"] = state.String()
	status := http.StatusOK
	if r.URL.Query().Get("full") == "1" && state != StateReady {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// ActivateIndex brings every shard's LSEI online without blocking serving.
// A non-nil snapshot is tried first, synchronously: a valid one activates
// immediately (ready, no build). A corrupt snapshot is rejected — the
// typed atomicio.ErrCorruptSnapshot guarantee means a flipped byte can
// never load wrong — and the daemon enters degraded mode while a full
// rebuild runs in the background; with no snapshot it starts in building
// mode the same way. Snapshots cover exactly one shard.
//
// The background build runs the global index preparation (PrepareIndex —
// one corpus scan for the shared frequent-type filter), then builds each
// shard's index aside and hot-swaps it, flipping that shard's Readiness to
// ready as it lands (builds serialize on the system's maintenance lock).
// Shards serve brute force until their swap, so the daemon answers
// correctly from the first request.
//
// A build panic is contained per shard: counted on
// thetis_panics_total{site="build"}, that shard parked at degraded (brute
// force), the other shards unaffected. The returned channel receives the
// terminal outcome exactly once — nil when every shard landed, or the
// first failure.
func ActivateIndex(sys *thetis.System, rds []*Readiness, cfg thetis.IndexConfig, votes int, snapshot io.Reader) <-chan error {
	done := make(chan error, 1)
	setAll := func(rds []*Readiness, state IndexState, detail string) {
		for _, rd := range rds {
			rd.Set(state, detail)
		}
	}
	sys.SetVotes(votes)
	if snapshot != nil {
		err := sys.LoadIndex(snapshot)
		if err == nil {
			setAll(rds, StateReady, "index loaded from snapshot")
			done <- nil
			return done
		}
		setAll(rds, StateDegraded, fmt.Sprintf("index snapshot rejected (%v); serving brute force while rebuilding", err))
	} else {
		setAll(rds, StateBuilding, "building index; serving brute force meanwhile")
	}
	go func() {
		var first error
		// contained runs one build step, parking the shards it covers at
		// degraded when it panics.
		contained := func(what string, covers []*Readiness, step func()) (ok bool) {
			defer func() {
				if r := recover(); r != nil {
					obs.PanicsTotal(nil, "build").Inc()
					setAll(covers, StateDegraded, fmt.Sprintf("%s panicked: %v; serving brute force", what, r))
					if first == nil {
						first = fmt.Errorf("server: %s panicked: %v", what, r)
					}
				}
			}()
			step()
			return true
		}
		if contained("index build", rds, func() { sys.PrepareIndex(cfg) }) {
			for i := range rds {
				if contained(fmt.Sprintf("shard %d index build", i), rds[i:i+1], func() { sys.BuildShardIndex(i) }) {
					rds[i].Set(StateReady, "index built")
				}
			}
		}
		done <- first
	}()
	return done
}
