package remote

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"thetis/internal/core"
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/obs"
	"thetis/internal/shard"
)

// testGraph interns the handful of entities the wire tests query with.
func testGraph(t *testing.T) *kg.Graph {
	t.Helper()
	g := kg.NewGraph()
	g.AddEntity("http://x/e0", "e0")
	g.AddEntity("http://x/e1", "e1")
	return g
}

func testQuery(g *kg.Graph) core.Query {
	e0, _ := g.Lookup("http://x/e0")
	e1, _ := g.Lookup("http://x/e1")
	return core.Query{{e0, e1}}
}

// sealedPayload builds a valid /shard/search response body.
func sealedPayload(t *testing.T, p SearchPayload) []byte {
	t.Helper()
	b, err := Seal(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// shardHandler answers /shard/search with the given payload and lets the
// test script the first n responses as HTTP 500s.
func shardHandler(t *testing.T, p SearchPayload, fail500 *atomic.Int32) http.HandlerFunc {
	body := sealedPayload(t, p)
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/shard/search" {
			http.NotFound(w, r)
			return
		}
		if fail500 != nil && fail500.Add(-1) >= 0 {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		w.Write(body)
	}
}

func fastOpts(seed int64) Options {
	return Options{
		MaxAttempts:    3,
		AttemptTimeout: time.Second,
		BackoffBase:    time.Millisecond,
		BackoffMax:     2 * time.Millisecond,
		Seed:           seed,
	}
}

func TestRemoteShardEnvelopeDetectsCorruption(t *testing.T) {
	b, err := Seal(SearchRequest{Tuples: [][]string{{"http://x/e0"}}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	var rt SearchRequest
	if err := Open(b, &rt); err != nil {
		t.Fatalf("clean envelope rejected: %v", err)
	}
	if rt.K != 5 || len(rt.Tuples) != 1 {
		t.Fatalf("round trip lost data: %+v", rt)
	}
	// Flip one payload bit: the checksum must catch it even though the
	// JSON may stay well-formed.
	bad := append([]byte(nil), b...)
	i := strings.Index(string(bad), "e0")
	bad[i] ^= 0x01
	if err := Open(bad, &rt); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted envelope accepted (err = %v)", err)
	}
}

func TestRemoteShardBreakerTransitions(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(2, time.Second)
	b.now = func() time.Time { return now }
	if ok, probe := b.acquire(); !ok || probe {
		t.Fatalf("new breaker acquire = (%v, %v), want (true, false)", ok, probe)
	}
	b.fail()
	if st, fails := b.snapshot(); st != breakerClosed || fails != 1 {
		t.Fatalf("after 1 failure: %v/%d", st, fails)
	}
	b.fail() // threshold reached
	if st, _ := b.snapshot(); st != breakerOpen {
		t.Fatalf("after threshold failures: %v, want open", st)
	}
	if ok, _ := b.acquire(); ok {
		t.Fatal("open breaker admitted traffic before cooldown")
	}
	now = now.Add(time.Second) // cooldown elapses
	if ok, probe := b.acquire(); !ok || !probe {
		t.Fatalf("cooled-down acquire = (%v, %v), want (true, true)", ok, probe)
	}
	if st, _ := b.snapshot(); st != breakerHalfOpen {
		t.Fatalf("state after probe admission: %v, want half-open", st)
	}
	if ok, _ := b.acquire(); ok {
		t.Fatal("half-open breaker admitted a second probe")
	}
	b.fail() // probe failed: back to open
	if st, _ := b.snapshot(); st != breakerOpen {
		t.Fatalf("state after failed probe: %v, want open", st)
	}
	now = now.Add(time.Second)
	b.acquire()
	b.success() // probe succeeded: closed
	if st, _ := b.snapshot(); st != breakerClosed {
		t.Fatalf("state after successful probe: %v, want closed", st)
	}
}

// TestRemoteShardBreakerAbandonReleasesProbe is the wedge regression: a
// half-open probe whose outcome is discarded (the caller gave up) must
// release the slot so the next acquire re-probes, instead of leaving the
// breaker half-open-and-rejecting forever.
func TestRemoteShardBreakerAbandonReleasesProbe(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(1, time.Second)
	b.now = func() time.Time { return now }
	b.fail() // trips at threshold 1
	now = now.Add(time.Second)
	if ok, probe := b.acquire(); !ok || !probe {
		t.Fatalf("cooled-down acquire = (%v, %v), want (true, true)", ok, probe)
	}
	if ok, _ := b.acquire(); ok {
		t.Fatal("probe slot leased twice")
	}
	b.abandon() // outcome discarded
	if st, _ := b.snapshot(); st != breakerHalfOpen {
		t.Fatalf("state after abandon: %v, want half-open", st)
	}
	if ok, probe := b.acquire(); !ok || !probe {
		t.Fatalf("acquire after abandon = (%v, %v), want (true, true) — breaker wedged", ok, probe)
	}
	b.success()
	if st, _ := b.snapshot(); st != breakerClosed {
		t.Fatalf("state after probe success: %v, want closed", st)
	}
	// abandon on a closed breaker is a no-op, not a state change.
	b.abandon()
	if st, _ := b.snapshot(); st != breakerClosed {
		t.Fatal("abandon disturbed a closed breaker")
	}
}

// TestRemoteShardPickReplicaSparesProbeSlots: pickReplica must not consume
// a cooled-down replica's half-open probe slot while choosing a different
// replica — the skipped replica would be wedged half-open with no request
// to record an outcome, invisible to searches and to ProbeOnce alike.
func TestRemoteShardPickReplicaSparesProbeSlots(t *testing.T) {
	g := testGraph(t)
	s, err := NewShard("t-spare", g, nil,
		[]Replica{{URL: "http://a.invalid"}, {URL: "http://b.invalid"}}, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	// Replica 0 tripped and cooled down: its breaker would admit a probe.
	now := time.Unix(0, 0)
	s.replicas[0].br.now = func() time.Time { return now }
	for i := 0; i < s.opt.BreakerThreshold; i++ {
		s.replicas[0].br.fail()
	}
	now = now.Add(s.opt.BreakerCooldown)
	// Replica 0 is also the one that just failed: every pick must choose
	// replica 1 and leave replica 0's probe slot un-leased.
	for i := 0; i < 4; i++ {
		ri, probe := s.pickReplica(0)
		if ri != 1 || probe {
			t.Fatalf("pickReplica(last=0) = (%d, %v), want (1, false)", ri, probe)
		}
	}
	if st, _ := s.replicas[0].br.snapshot(); st != breakerOpen {
		t.Fatalf("skipped replica's breaker %v, want open (slot untouched)", st)
	}
	// The slot is still available to whoever actually sends: half-open.
	if ok, probe := s.replicas[0].br.acquire(); !ok || !probe {
		t.Fatalf("skipped replica cannot probe: (%v, %v)", ok, probe)
	}
}

func TestRemoteShardRetriesThenSucceeds(t *testing.T) {
	g := testGraph(t)
	want := SearchPayload{
		Results: []WireResult{{Table: 1, Score: 0.9}, {Table: 0, Score: 0.4}},
		Stats:   WireStats{Candidates: 2, Scored: 2},
	}
	var fail atomic.Int32
	fail.Store(2) // first two attempts answer 500
	srv := httptest.NewServer(shardHandler(t, want, &fail))
	defer srv.Close()

	s, err := NewShard("t-retry", g, []lake.TableID{10, 11}, []Replica{{URL: srv.URL}}, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	before := obs.RemoteShardRetriesTotal("t-retry").Value()
	results, stats := s.SearchShard(context.Background(), testQuery(g), 2, shard.SearchOptions{})
	if stats.Truncated {
		t.Fatalf("leg truncated after successful retry: %+v", stats.ShardErrors)
	}
	if len(results) != 2 || results[0].Table != 11 || results[1].Table != 10 {
		t.Fatalf("global translation wrong: %+v", results)
	}
	if results[0].Score != 0.9 {
		t.Fatalf("score lost: %+v", results[0])
	}
	if got := obs.RemoteShardRetriesTotal("t-retry").Value() - before; got != 2 {
		t.Fatalf("retries counter advanced by %d, want 2", got)
	}
}

func TestRemoteShardFailsOverToHealthyReplica(t *testing.T) {
	g := testGraph(t)
	want := SearchPayload{Results: []WireResult{{Table: 0, Score: 1}}}
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from now on
	live := httptest.NewServer(shardHandler(t, want, nil))
	defer live.Close()

	s, err := NewShard("t-failover", g, []lake.TableID{7},
		[]Replica{{URL: dead.URL}, {URL: live.URL}}, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	before := obs.RemoteShardFailoversTotal("t-failover").Value()
	// Run a few searches: whichever replica round-robin tries first, every
	// search must land on the live one.
	for i := 0; i < 4; i++ {
		results, stats := s.SearchShard(context.Background(), testQuery(g), 1, shard.SearchOptions{})
		if stats.Truncated || len(results) != 1 || results[0].Table != 7 {
			t.Fatalf("search %d: results %+v stats %+v", i, results, stats)
		}
	}
	if got := obs.RemoteShardFailoversTotal("t-failover").Value(); got == before {
		t.Fatal("no failover recorded despite a dead replica in rotation")
	}
}

// countingTransport counts the round trips it is given before passing them
// on.
type countingTransport struct {
	n    atomic.Int32
	next http.RoundTripper
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.next.RoundTrip(r)
}

// TestRemoteShardRoundRobinSurvivesFailover: with breakers that never trip,
// consecutive legs must still start on consecutive replicas when one of
// them fails over. A cursor that also advanced on the failover pick would
// move by two per leg and start every leg on the dead replica.
func TestRemoteShardRoundRobinSurvivesFailover(t *testing.T) {
	g := testGraph(t)
	want := SearchPayload{Results: []WireResult{{Table: 0, Score: 1}}}
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from now on
	live := httptest.NewServer(shardHandler(t, want, nil))
	defer live.Close()

	deadRT := &countingTransport{next: http.DefaultTransport}
	opt := fastOpts(1)
	opt.BreakerThreshold = 1 << 30
	opt.MaxAttempts = 2
	s, err := NewShard("t-rr-failover", g, []lake.TableID{7},
		[]Replica{{URL: live.URL}, {URL: dead.URL, Client: &http.Client{Transport: deadRT}}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	const searches = 20
	for i := 0; i < searches; i++ {
		results, stats := s.SearchShard(context.Background(), testQuery(g), 1, shard.SearchOptions{})
		if stats.Truncated || len(results) != 1 || results[0].Table != 7 {
			t.Fatalf("search %d: results %+v stats %+v", i, results, stats)
		}
	}
	if got := deadRT.n.Load(); got > searches/2+1 {
		t.Fatalf("the dead replica got %d requests over %d searches, want at most %d", got, searches, searches/2+1)
	}
}

func TestRemoteShardAllAttemptsFailDegrades(t *testing.T) {
	g := testGraph(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()

	s, err := NewShard("t-dead", g, []lake.TableID{3}, []Replica{{URL: srv.URL}}, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	results, stats := s.SearchShard(context.Background(), testQuery(g), 1, shard.SearchOptions{})
	if len(results) != 0 {
		t.Fatalf("dead shard returned results: %+v", results)
	}
	if !stats.Truncated {
		t.Fatal("dead shard must mark Truncated")
	}
	if len(stats.ShardErrors) != 3 {
		t.Fatalf("want one ShardErrors entry per attempt (3), got %v", stats.ShardErrors)
	}
	for i, e := range stats.ShardErrors {
		if !strings.Contains(e, "http 500") {
			t.Fatalf("error %d does not carry the cause: %q", i, e)
		}
	}
}

func TestRemoteShardBreakerTripsAndRecovers(t *testing.T) {
	g := testGraph(t)
	want := SearchPayload{Results: []WireResult{{Table: 0, Score: 1}}}
	var healthy atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		if !healthy.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		shardHandler(t, want, nil)(w, r)
	}))
	defer srv.Close()

	opt := fastOpts(1)
	opt.BreakerThreshold = 2
	opt.BreakerCooldown = 10 * time.Millisecond
	s, err := NewShard("t-breaker", g, []lake.TableID{5}, []Replica{{URL: srv.URL}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	before := obs.RemoteShardBreakerOpenTotal("t-breaker").Value()
	_, stats := s.SearchShard(context.Background(), testQuery(g), 1, shard.SearchOptions{})
	if !stats.Truncated {
		t.Fatal("failing replica must truncate")
	}
	if obs.RemoteShardBreakerOpenTotal("t-breaker").Value() == before {
		t.Fatal("breaker never tripped")
	}
	if s.Status().Replicas[0].Breaker == "closed" {
		t.Fatal("shard reports healthy with its only breaker open")
	}
	st := s.Status()
	if len(st.Replicas) != 1 || st.Replicas[0].Breaker == "closed" {
		t.Fatalf("status must surface the open breaker: %+v", st)
	}

	// Replica heals; the background probe path re-admits it after cooldown.
	healthy.Store(true)
	time.Sleep(15 * time.Millisecond)
	s.ProbeOnce(context.Background())
	if s.Status().Replicas[0].Breaker != "closed" {
		t.Fatalf("probe did not close the breaker: %+v", s.Status())
	}
	results, stats := s.SearchShard(context.Background(), testQuery(g), 1, shard.SearchOptions{})
	if stats.Truncated || len(results) != 1 || results[0].Table != 5 {
		t.Fatalf("recovered shard still failing: %+v / %+v", results, stats)
	}
}

// TestRemoteShardStalledReplicaTripsBreaker covers two review findings at
// once: an attempt that dies by its per-attempt deadline (mid-body stall,
// slow-loris) must count as a breaker failure — a consistently stalled
// replica is exactly what the breaker parks — and a half-open probe that
// dies the same way must re-open the breaker rather than wedge it
// half-open forever, which for a single-replica shard would silently kill
// the whole leg until restart.
func TestRemoteShardStalledReplicaTripsBreaker(t *testing.T) {
	g := testGraph(t)
	want := SearchPayload{Results: []WireResult{{Table: 0, Score: 1}}}
	body := sealedPayload(t, want)
	var stalled atomic.Bool
	stalled.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		if stalled.Load() {
			select { // hold the request until the client's deadline kills it
			case <-r.Context().Done():
			case <-time.After(5 * time.Second):
			}
			return
		}
		w.Write(body)
	}))
	defer srv.Close()

	opt := fastOpts(1)
	opt.MaxAttempts = 1
	opt.AttemptTimeout = 20 * time.Millisecond
	opt.BreakerThreshold = 1
	opt.BreakerCooldown = 10 * time.Millisecond
	s, err := NewShard("t-stall", g, []lake.TableID{5}, []Replica{{URL: srv.URL}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Attempt 1 burns its deadline: that MUST be a breaker failure.
	_, stats := s.SearchShard(context.Background(), testQuery(g), 1, shard.SearchOptions{})
	if !stats.Truncated {
		t.Fatal("stalled replica did not truncate")
	}
	if st, _ := s.replicas[0].br.snapshot(); st != breakerOpen {
		t.Fatalf("breaker %v after a stalled attempt, want open", st)
	}
	// Cooldown elapses; the next search consumes the half-open probe and
	// stalls again: the breaker must return to open, not wedge half-open.
	time.Sleep(15 * time.Millisecond)
	_, stats = s.SearchShard(context.Background(), testQuery(g), 1, shard.SearchOptions{})
	if !stats.Truncated {
		t.Fatal("still-stalled replica did not truncate")
	}
	if st, _ := s.replicas[0].br.snapshot(); st != breakerOpen {
		t.Fatalf("breaker %v after a stalled probe, want open (wedged?)", st)
	}
	// Replica heals: the background probe path must recover the leg.
	stalled.Store(false)
	time.Sleep(15 * time.Millisecond)
	s.ProbeOnce(context.Background())
	if s.Status().Replicas[0].Breaker != "closed" {
		t.Fatalf("probe did not recover the healed replica: %+v", s.Status())
	}
	results, stats := s.SearchShard(context.Background(), testQuery(g), 1, shard.SearchOptions{})
	if stats.Truncated || len(results) != 1 || results[0].Table != 5 {
		t.Fatalf("recovered shard still failing: %+v / %+v", results, stats)
	}
}

// TestRemoteShardCancelledProbeReleasesSlot is the end-to-end form of
// the abandon regression: a search that holds a half-open probe slot and
// is cancelled by its caller records no outcome, so the breaker stays
// half-open with the slot free, and the next search probes and recovers
// the healed replica instead of finding the breaker wedged.
func TestRemoteShardCancelledProbeReleasesSlot(t *testing.T) {
	g := testGraph(t)
	body := sealedPayload(t, SearchPayload{Results: []WireResult{{Table: 0, Score: 1}}})
	var stalled atomic.Bool
	stalled.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stalled.Load() {
			// Read the body first so the server notices the client hanging up.
			io.Copy(io.Discard, r.Body)
			select { // hold the request until the client gives up
			case <-r.Context().Done():
			case <-time.After(5 * time.Second):
			}
			return
		}
		w.Write(body)
	}))
	defer srv.Close()

	opt := fastOpts(1)
	opt.MaxAttempts = 1
	opt.AttemptTimeout = 200 * time.Millisecond
	opt.BreakerThreshold = 1
	opt.BreakerCooldown = 10 * time.Millisecond
	s, err := NewShard("t-cancel-probe", g, []lake.TableID{5}, []Replica{{URL: srv.URL}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The stalled attempt burns its deadline and trips the breaker.
	if _, stats := s.SearchShard(context.Background(), testQuery(g), 1, shard.SearchOptions{}); !stats.Truncated {
		t.Fatal("stalled replica did not truncate")
	}
	if st, _ := s.replicas[0].br.snapshot(); st != breakerOpen {
		t.Fatalf("breaker %v after a stalled attempt, want open", st)
	}
	// After the cooldown a search takes the probe slot; its caller gives up
	// at 5ms, well inside the attempt deadline.
	time.Sleep(15 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	if _, stats := s.SearchShard(ctx, testQuery(g), 1, shard.SearchOptions{}); !stats.Truncated {
		t.Fatal("cancelled search did not truncate")
	}
	if st, _ := s.replicas[0].br.snapshot(); st != breakerHalfOpen {
		t.Fatalf("breaker %v after a cancelled probe, want half-open", st)
	}
	// The replica heals: the next search must get the released slot.
	stalled.Store(false)
	results, stats := s.SearchShard(context.Background(), testQuery(g), 1, shard.SearchOptions{})
	if stats.Truncated || len(results) != 1 || results[0].Table != 5 {
		t.Fatalf("search after a cancelled probe failed (slot leaked?): %+v / %+v", results, stats)
	}
}

// TestRemoteShardProbeRejectsForeignService: a /readyz answer outside the
// statuses the endpoint emits (200, 503) — a 404 from some other service
// squatting on the replica's port — must not close the breaker and
// re-admit a replica that cannot actually serve /shard/search.
func TestRemoteShardProbeRejectsForeignService(t *testing.T) {
	g := testGraph(t)
	srv := httptest.NewServer(http.NotFoundHandler()) // 404 to everything
	defer srv.Close()

	opt := fastOpts(1)
	opt.BreakerThreshold = 1
	opt.BreakerCooldown = time.Millisecond
	s, err := NewShard("t-foreign-probe", g, nil, []Replica{{URL: srv.URL}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	s.replicas[0].br.fail() // parked
	time.Sleep(5 * time.Millisecond)
	s.ProbeOnce(context.Background())
	if s.Status().Replicas[0].Breaker == "closed" {
		t.Fatalf("404-answering replica re-admitted: %+v", s.Status())
	}
	if st, _ := s.replicas[0].br.snapshot(); st != breakerOpen {
		t.Fatalf("breaker %v after foreign-service probe, want open", st)
	}
}

func TestRemoteShardRejectsForeignTableIDs(t *testing.T) {
	g := testGraph(t)
	// The daemon answers with local table 40, but this shard only owns 2
	// tables: merging would index out of the global map.
	srv := httptest.NewServer(shardHandler(t, SearchPayload{
		Results: []WireResult{{Table: 40, Score: 1}},
	}, nil))
	defer srv.Close()
	opt := fastOpts(1)
	opt.MaxAttempts = 1
	s, err := NewShard("t-foreign", g, []lake.TableID{0, 1}, []Replica{{URL: srv.URL}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	results, stats := s.SearchShard(context.Background(), testQuery(g), 1, shard.SearchOptions{})
	if len(results) != 0 || !stats.Truncated {
		t.Fatalf("foreign table ID merged: %+v / %+v", results, stats)
	}
	if len(stats.ShardErrors) == 0 || !strings.Contains(stats.ShardErrors[0], "outside shard") {
		t.Fatalf("cause not surfaced: %v", stats.ShardErrors)
	}
}

func TestRemoteShardAttemptTimeoutCarvesBudget(t *testing.T) {
	g := testGraph(t)
	s, err := NewShard("t-budget", g, nil, []Replica{{URL: "http://127.0.0.1:0"}}, Options{AttemptTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// No deadline: the configured attempt timeout applies.
	if d := s.attemptTimeout(context.Background(), 3); d != time.Second {
		t.Fatalf("no-deadline attempt timeout %v, want 1s", d)
	}
	// 30ms budget across 3 attempts: ~10ms each, never the full second.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if d := s.attemptTimeout(ctx, 3); d > 11*time.Millisecond || d < time.Millisecond {
		t.Fatalf("carved attempt timeout %v, want ~10ms", d)
	}
}

func TestRemoteShardPushArtifactsRetries(t *testing.T) {
	g := testGraph(t)
	var fail atomic.Int32
	fail.Store(1)
	var applied atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/shard/artifacts" {
			http.NotFound(w, r)
			return
		}
		if fail.Add(-1) >= 0 {
			http.Error(w, "not yet", http.StatusInternalServerError)
			return
		}
		applied.Add(1)
		w.Write([]byte(`{"applied":true}`))
	}))
	defer srv.Close()

	s, err := NewShard("t-push", g, nil, []Replica{{URL: srv.URL}}, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	a := Artifacts{Informativeness: map[string]float64{"http://x/e0": 2.5}, Votes: 3}
	if err := s.PushArtifacts(context.Background(), a); err != nil {
		t.Fatalf("push failed despite retry budget: %v", err)
	}
	if applied.Load() != 1 {
		t.Fatalf("artifacts applied %d times, want 1", applied.Load())
	}
}
