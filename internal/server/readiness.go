package server

// Degraded-mode serving: the daemon binds its listener and answers searches
// immediately — brute force over the whole corpus, correct but slower —
// while the LSEI prefilter builds in the background. The index is
// hot-swapped into the live System atomically as it lands, and searches
// stay correct throughout because a system without an index serves brute
// force. GET /readyz reports the lifecycle so orchestrators can route bulk
// traffic only at full capacity, while /healthz stays a pure liveness
// probe.

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"thetis"
	"thetis/internal/obs"
)

// IndexState is the prefilter lifecycle phase reported on /readyz and the
// thetis_index_state gauge.
type IndexState int32

const (
	// StateBuilding: no index yet; the initial build is in progress and
	// searches run brute force.
	StateBuilding IndexState = iota
	// StateDegraded: the index build panicked or the delta log stopped
	// logging; searches still run, brute force when no index landed.
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

// Readiness tracks the index lifecycle. It is safe for concurrent use; the
// HTTP handlers read it while ActivateIndex's background build writes it.
type Readiness struct {
	state atomic.Int32
	gauge *obs.Gauge

	mu     sync.Mutex
	detail string
	since  time.Time
}

// NewReadiness creates a lifecycle tracker in the building state, mirrored
// on thetis_index_state of r (obs.Default when nil). Pass it to
// WithReadiness and ActivateIndex.
func NewReadiness(r *obs.Registry) *Readiness {
	rd := &Readiness{gauge: obs.IndexState(r)}
	rd.Set(StateBuilding, "index build pending")
	return rd
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

// indexReadiness is the index lifecycle's /readyz state, with its detail
// and transition time.
func indexReadiness(rd *Readiness) (IndexState, map[string]any) {
	state, detail, since := rd.Snapshot()
	return state, map[string]any{"detail": detail, "since": since.UTC().Format(time.RFC3339Nano)}
}

// handleReady reports whether the daemon serves at full capacity. It serves
// correct results in every state — building and degraded just mean
// brute-force scans, a degraded coordinator Truncated prefixes — so /readyz
// answers 200 with the state by default. Orchestrators that should route
// traffic only at full capacity can ask with ?full=1, which answers 503
// until the state is ready.
//
// The state comes from the index lifecycle (WithReadiness) or the
// remote-replica breakdown (WithRemoteShardStatus); without either the
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

// ActivateIndex brings the LSEI online without blocking serving: rd enters
// building while the index builds in the background, and the build
// hot-swaps the index in and flips rd to ready; until then the daemon
// answers correctly by brute force.
//
// A build panic is contained: counted on thetis_panics_total{site="build"}
// and parking rd at degraded (brute force). The returned channel receives
// the terminal outcome exactly once — nil when the index landed, or the
// failure.
func ActivateIndex(sys *thetis.System, rd *Readiness, cfg thetis.IndexConfig, votes int) <-chan error {
	done := make(chan error, 1)
	sys.SetVotes(votes)
	rd.Set(StateBuilding, "building index; serving brute force meanwhile")
	go func() {
		defer func() {
			if r := recover(); r != nil {
				obs.PanicsTotal(nil, "build").Inc()
				rd.Set(StateDegraded, fmt.Sprintf("index build panicked: %v; serving brute force", r))
				done <- fmt.Errorf("server: index build panicked: %v", r)
			}
		}()
		sys.BuildIndex(cfg)
		rd.Set(StateReady, "index built")
		done <- nil
	}()
	return done
}
