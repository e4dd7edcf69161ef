package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thetis/internal/core"
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/obs"
	"thetis/internal/shard"
)

// maxResponseBytes bounds how much of a /shard/search response the client
// will buffer, mirroring the server's own request-body cap.
const maxResponseBytes = 64 << 20

// Replica is one interchangeable daemon serving a shard's table slice.
type Replica struct {
	// URL is the daemon's base URL (e.g. "http://10.0.0.7:8080").
	URL string
	// Client performs the HTTP round trips; nil uses a default client.
	// Tests inject faultio.FaultTransport here.
	Client *http.Client
}

// Options tunes the robustness layer. The zero value gets sensible
// defaults (3 attempts, 2s per attempt, 5ms..250ms backoff, breaker
// threshold 3 / cooldown 2s).
type Options struct {
	// MaxAttempts bounds search attempts per leg, across replicas
	// (default 3). Searches are idempotent, so retrying is always safe.
	MaxAttempts int
	// AttemptTimeout caps one attempt's wall time (default 2s). When the
	// incoming context carries a deadline, each attempt instead gets
	// min(AttemptTimeout, remaining/attemptsLeft) so the retry budget is
	// spent inside the coordinator's budget, not after it.
	AttemptTimeout time.Duration
	// BackoffBase and BackoffMax shape the exponential backoff between
	// attempts: min(BackoffMax, BackoffBase<<(attempt-1)), equal-jittered
	// (half fixed, half random). Defaults 5ms and 250ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold trips a replica's circuit breaker after this many
	// consecutive failures (default 3); BreakerCooldown is how long it
	// stays parked before a half-open probe (default 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Seed makes the backoff jitter deterministic in tests (default 1).
	Seed int64
}

func (o *Options) withDefaults() Options {
	v := *o
	if v.MaxAttempts <= 0 {
		v.MaxAttempts = 3
	}
	if v.AttemptTimeout <= 0 {
		v.AttemptTimeout = 2 * time.Second
	}
	if v.BackoffBase <= 0 {
		v.BackoffBase = 5 * time.Millisecond
	}
	if v.BackoffMax <= 0 {
		v.BackoffMax = 250 * time.Millisecond
	}
	if v.BreakerThreshold <= 0 {
		v.BreakerThreshold = 3
	}
	if v.BreakerCooldown <= 0 {
		v.BreakerCooldown = 2 * time.Second
	}
	if v.Seed == 0 {
		v.Seed = 1
	}
	return v
}

// replica is one replica plus its client-side health state.
type replica struct {
	url    string
	client *http.Client
	br     *breaker
}

// Shard is the HTTP shard client: it satisfies shard.Searcher by proxying
// SearchShard to one of N interchangeable remote daemons and translating
// the winner's local table IDs into the coordinator's global ID space.
// See the package comment for the robustness contract.
//
// A Shard is safe for concurrent searches once constructed.
type Shard struct {
	label    string
	g        *kg.Graph
	globals  []lake.TableID
	replicas []*replica
	opt      Options

	rr atomic.Uint32 // round-robin cursor

	jmu sync.Mutex
	rng *rand.Rand

	mRetries   *obs.Counter
	mFailovers *obs.Counter
}

// NewShard builds the client for one shard. label names it in metrics and
// status ("0", "1", …); g is the coordinator's KG (query entity IDs are
// serialized through it as URIs); globals maps the daemon's dense local
// table IDs to lake-global IDs, in local ID order — it must list exactly
// the tables the daemon ingested, in the same order, or rankings are
// garbage (thetis.System.ShardGlobalIDs derives it by re-running the
// deterministic partitioner).
func NewShard(label string, g *kg.Graph, globals []lake.TableID, replicas []Replica, opt Options) (*Shard, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("remote: shard %s: no replicas", label)
	}
	opt = opt.withDefaults()
	s := &Shard{
		label:      label,
		g:          g,
		globals:    globals,
		opt:        opt,
		rng:        rand.New(rand.NewSource(opt.Seed)),
		mRetries:   obs.RemoteShardRetriesTotal(label),
		mFailovers: obs.RemoteShardFailoversTotal(label),
	}
	breakerOpens := obs.RemoteShardBreakerOpenTotal(label)
	for _, r := range replicas {
		url := strings.TrimRight(r.URL, "/")
		client := r.Client
		if client == nil {
			client = &http.Client{}
		}
		br := newBreaker(opt.BreakerThreshold, opt.BreakerCooldown)
		br.onOpen = breakerOpens.Inc
		up := obs.RemoteShardReplicaUp(label, url)
		up.Set(1)
		br.onState = func(st breakerState) {
			if st == breakerClosed {
				up.Set(1)
			} else {
				up.Set(0)
			}
		}
		s.replicas = append(s.replicas, &replica{url: url, client: client, br: br})
	}
	return s, nil
}

// Label returns the shard's metric/status label.
func (s *Shard) Label() string { return s.label }

// NumTables returns how many tables the remote daemon owns (the length of
// the global ID map).
func (s *Shard) NumTables() int { return len(s.globals) }

// SearchShard implements shard.Searcher over HTTP. It never returns an
// error: a leg whose every attempt fails composes into an empty
// correctly-ranked prefix with Stats.Truncated set and the per-attempt
// failures listed in Stats.ShardErrors — exactly how an in-process
// deadline or contained panic degrades.
func (s *Shard) SearchShard(ctx context.Context, q core.Query, k int, opts shard.SearchOptions) ([]core.Result, core.Stats) {
	start := time.Now()
	tr := obs.NewTrace("search")
	body, err := Seal(s.encodeRequest(q, k, opts))
	if err != nil {
		// Unserializable queries cannot exist (tuples are strings), but
		// degrade rather than panic if one ever does.
		return nil, core.Stats{
			Truncated:   true,
			ShardErrors: []string{"encode: " + err.Error()},
			Trace:       tr,
		}
	}

	var errs []string
	last := -1
	attempts := 0
	for attempt := 1; attempt <= s.opt.MaxAttempts; attempt++ {
		if ctx.Err() != nil {
			errs = append(errs, "context: "+ctx.Err().Error())
			break
		}
		ri, probe := s.pickReplica(last)
		if ri < 0 {
			errs = append(errs, "no replica available (all circuit breakers open)")
			break
		}
		if attempt > 1 {
			s.mRetries.Inc()
		}
		if last >= 0 && ri != last {
			s.mFailovers.Inc()
		}
		last = ri
		attempts++

		actx, cancel := context.WithTimeout(ctx, s.attemptTimeout(ctx, s.opt.MaxAttempts-attempt+1))
		payload, aerr := s.attempt(actx, ri, probe, body)
		cancel()
		if aerr == nil {
			results, stats := s.decode(payload)
			stats.Trace = tr
			tr.Add(obs.Stage{Name: "remote", Wall: time.Since(start), Items: attempts})
			return results, stats
		}
		errs = append(errs, fmt.Sprintf("attempt %d: %v", attempt, aerr))
		if attempt < s.opt.MaxAttempts {
			s.sleepBackoff(ctx, attempt)
		}
	}
	tr.Add(obs.Stage{Name: "remote", Wall: time.Since(start), Items: attempts})
	return nil, core.Stats{Truncated: true, ShardErrors: errs, Trace: tr}
}

// encodeRequest serializes q as entity URIs — the process-independent
// entity names — plus the scatter options.
func (s *Shard) encodeRequest(q core.Query, k int, opts shard.SearchOptions) SearchRequest {
	tuples := make([][]string, len(q))
	for i, tup := range q {
		uris := make([]string, len(tup))
		for j, e := range tup {
			uris[j] = s.g.URI(e)
		}
		tuples[i] = uris
	}
	return SearchRequest{Tuples: tuples, K: k, ForceFullScan: opts.ForceFullScan}
}

// decode translates a verified payload into global-ID results and stats.
func (s *Shard) decode(p *SearchPayload) ([]core.Result, core.Stats) {
	results := make([]core.Result, len(p.Results))
	for i, wr := range p.Results {
		results[i] = core.Result{Table: s.globals[wr.Table], Score: wr.Score}
	}
	return results, core.Stats{
		Candidates:  p.Stats.Candidates,
		Scored:      p.Stats.Scored,
		Pruned:      p.Stats.Pruned,
		MappingTime: time.Duration(p.Stats.MappingMicro) * time.Microsecond,
		TotalTime:   time.Duration(p.Stats.TotalMicro) * time.Microsecond,
		Truncated:   p.Stats.Truncated,
		Panicked:    p.Stats.Panicked,
		SigmaHits:   p.Stats.SigmaHits,
		SigmaMisses: p.Stats.SigmaMisses,
	}
}

// attemptTimeout carves one attempt's deadline out of the remaining
// context budget: min(AttemptTimeout, remaining/attemptsLeft), floored at
// 1ms so the final sliver still gets a real attempt.
func (s *Shard) attemptTimeout(ctx context.Context, attemptsLeft int) time.Duration {
	d := s.opt.AttemptTimeout
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			if per := rem / time.Duration(attemptsLeft); per < d {
				d = per
			}
		}
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// sleepBackoff waits min(BackoffMax, BackoffBase<<(attempt-1)) with equal
// jitter (half fixed, half uniform random), or returns early when ctx
// dies.
func (s *Shard) sleepBackoff(ctx context.Context, attempt int) {
	d := s.opt.BackoffBase << uint(attempt-1)
	if d > s.opt.BackoffMax || d <= 0 {
		d = s.opt.BackoffMax
	}
	s.jmu.Lock()
	d = d/2 + time.Duration(s.rng.Int63n(int64(d/2)+1))
	s.jmu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// pickReplica chooses the next replica whose breaker admits traffic,
// round-robin, preferring one different from the replica that just failed
// (failover) when more than one is available. Only a leg's first pick
// (last < 0) advances the round-robin cursor; a failover scans on from
// last+1, so consecutive legs start on consecutive replicas even when some
// of them fail over. probe is true when the admission consumed the
// replica's half-open probe slot; the caller must then guarantee the
// request settles it (attempt does). acquire is only called on a replica
// that is actually returned — probing a replica and then skipping it would
// consume its probe slot with no request to record an outcome, wedging the
// breaker half-open forever.
func (s *Shard) pickReplica(last int) (ri int, probe bool) {
	n := len(s.replicas)
	start := last + 1
	if last < 0 {
		start = int(s.rr.Add(1))
	}
	start %= n
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			ri := (start + i) % n
			// Pass 0 considers only failover candidates (ri != last);
			// pass 1 falls back to the replica that just failed.
			if (ri == last) != (pass == 1) {
				continue
			}
			if ok, probe := s.replicas[ri].br.acquire(); ok {
				return ri, probe
			}
		}
	}
	return -1, false
}

// attempt sends one request to replica ri and settles its breaker:
// success closes it; a failure — including an attempt that burned its
// whole per-attempt deadline, the stalled-replica case the breaker exists
// for — counts against the replica. Only a request cut short because the
// caller gave up records no outcome, and if it held the half-open probe
// slot the slot is released (breaker.abandon) rather than leaked.
func (s *Shard) attempt(ctx context.Context, ri int, probe bool, body []byte) (*SearchPayload, error) {
	br := s.replicas[ri].br
	p, err := s.do(ctx, ri, body)
	switch {
	case err == nil:
		br.success()
		return p, nil
	case errors.Is(err, context.Canceled):
		if probe {
			br.abandon()
		}
	default:
		br.fail()
	}
	return nil, fmt.Errorf("%s: %w", s.replicas[ri].url, err)
}

// do performs one HTTP round trip against replica ri, verifies the CRC
// envelope, and validates that every returned table ID is inside the
// shard's local ID space (a daemon serving the wrong corpus slice must
// not be merged).
func (s *Shard) do(ctx context.Context, ri int, body []byte) (*SearchPayload, error) {
	r := s.replicas[ri]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url+"/shard/search", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %d: %s", resp.StatusCode, firstLine(data))
	}
	var p SearchPayload
	if err := Open(data, &p); err != nil {
		return nil, err
	}
	for _, wr := range p.Results {
		if wr.Table < 0 || int(wr.Table) >= len(s.globals) {
			return nil, fmt.Errorf("remote: table id %d outside shard's %d-table slice (wrong corpus?)", wr.Table, len(s.globals))
		}
	}
	return &p, nil
}

// PushArtifacts ships the global-artifact bootstrap to every replica of
// this shard (each daemon process needs its own copy), retrying each
// replica up to MaxAttempts with backoff. All replicas must acknowledge;
// the combined error reports the ones that did not.
func (s *Shard) PushArtifacts(ctx context.Context, a Artifacts) error {
	body, err := Seal(a)
	if err != nil {
		return fmt.Errorf("remote: seal artifacts: %w", err)
	}
	var errs []string
	for _, r := range s.replicas {
		if err := s.pushOne(ctx, r, body); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", r.url, err))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("remote: shard %s artifacts: %s", s.label, strings.Join(errs, "; "))
	}
	return nil
}

func (s *Shard) pushOne(ctx context.Context, r *replica, body []byte) error {
	var lastErr error
	for attempt := 1; attempt <= s.opt.MaxAttempts; attempt++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		actx, cancel := context.WithTimeout(ctx, s.opt.AttemptTimeout)
		lastErr = func() error {
			req, err := http.NewRequestWithContext(actx, http.MethodPost, r.url+"/shard/artifacts", bytes.NewReader(body))
			if err != nil {
				return err
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := r.client.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("http %d: %s", resp.StatusCode, firstLine(data))
			}
			return nil
		}()
		cancel()
		if lastErr == nil {
			return nil
		}
		if attempt < s.opt.MaxAttempts {
			s.sleepBackoff(ctx, attempt)
		}
	}
	return lastErr
}

// ReplicaStatus is one replica's client-side health view, served on the
// coordinator's /readyz breakdown.
type ReplicaStatus struct {
	URL                 string `json:"url"`
	Breaker             string `json:"breaker"`
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
}

// Status is one shard's replica breakdown.
type Status struct {
	Shard    string          `json:"shard"`
	Tables   int             `json:"tables"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// Status snapshots per-replica breaker state.
func (s *Shard) Status() Status {
	st := Status{Shard: s.label, Tables: len(s.globals)}
	for _, r := range s.replicas {
		state, fails := r.br.snapshot()
		st.Replicas = append(st.Replicas, ReplicaStatus{
			URL:                 r.url,
			Breaker:             state.String(),
			ConsecutiveFailures: fails,
		})
	}
	return st
}

// ProbeOnce health-checks every replica whose breaker is not closed: a
// GET /readyz answering one of the statuses the endpoint actually emits
// (200 ready, 503 degraded-but-serving) counts as alive and feeds the
// breaker's half-open probe, so a parked replica rejoins without a user
// request paying for the experiment. Half-open replicas whose probe slot
// is free (a previous probe was abandoned) are probed too — the
// background prober is the safety net that un-wedges them.
func (s *Shard) ProbeOnce(ctx context.Context) {
	for _, r := range s.replicas {
		if state, _ := r.br.snapshot(); state == breakerClosed {
			continue
		}
		ok, _ := r.br.acquire()
		if !ok {
			continue // cooling down, or a probe is already in flight
		}
		pctx, cancel := context.WithTimeout(ctx, s.opt.AttemptTimeout)
		alive := probe(pctx, r)
		cancel()
		// Every acquired slot settles here: success or fail, never dropped,
		// even when ctx died mid-probe (alive is false then, re-opening the
		// breaker — the next ProbeOnce retries after the cooldown).
		if alive {
			r.br.success()
		} else {
			r.br.fail()
		}
	}
}

// probe reports whether r answers /readyz like a thetisd shard daemon.
// Only the statuses the endpoint emits count — 200 (ready) and 503
// (degraded ?full=1 form) — so a different service squatting on the port
// (404, 401, ...) does not close the breaker and re-admit a replica that
// cannot serve /shard/search.
func probe(ctx context.Context, r *replica) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusServiceUnavailable
}

// StartProbes runs ProbeOnce every interval until the returned stop
// function is called.
func (s *Shard) StartProbes(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				s.ProbeOnce(ctx)
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// firstLine truncates an error body for inclusion in an error message.
func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
