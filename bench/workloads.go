package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"thetis"
	"thetis/internal/core"
	"thetis/internal/server"
	"thetis/internal/shard"
)

// searchFunc sends query qi of the corpus through a workload's whole path
// and returns the ranking. A non-nil error is a failed operation: a
// non-200 answer, a shed request, a truncated ranking, a dead shard leg.
// req identifies the request in the trace.
type searchFunc func(qi int, req int64) ([]core.Result, error)

// deployment is one workload's system under test, built by a function in
// backends.go.
type deployment interface {
	// plain is the path with no benchmark wrapper anywhere on it.
	plain() searchFunc
	// traced is the same system behind span-recording wrappers.
	traced(tr *tracer) (searchFunc, error)
	close()
}

// workload names a deployment, the load it is put under and why.
type workload struct {
	name string
	// clients asks for that many closed-loop callers; 0 means one per CPU.
	// Never more than runtime.NumCPU() are started.
	clients int
	// onePerFive is the query mix (see newSchedule).
	onePerFive int
	embeddings bool // embedding-cosine σ and no index, else type σ with LSEI
	static     bool // the lake never changes, so a query's ranking never may
	setup      func(c *corpus, s *schedule, dir string, p *setupParts) (deployment, error)
}

var workloads = []workload{
	{name: "lsei_http", clients: 1, onePerFive: 3, static: true,
		setup: func(c *corpus, _ *schedule, _ string, p *setupParts) (deployment, error) {
			d, err := newHTTPDeployment(c, p)
			if err != nil {
				return nil, err
			}
			return &httpWorkload{d: d, c: c}, nil
		}},
	{name: "brute_embed", clients: 0, onePerFive: 0, embeddings: true, static: true,
		setup: func(c *corpus, _ *schedule, _ string, p *setupParts) (deployment, error) {
			start := time.Now()
			sys, err := newEmbeddingSystem(c, p)
			p.total += time.Since(start)
			if err != nil {
				return nil, err
			}
			return &inprocWorkload{sys: sys, c: c}, nil
		}},
	{name: "scatter_remote", clients: 1, onePerFive: 3, static: true,
		setup: func(c *corpus, _ *schedule, _ string, p *setupParts) (deployment, error) {
			d, err := newScatterDeployment(c, p)
			if err != nil {
				return nil, err
			}
			return &scatterWorkload{d: d, c: c}, nil
		}},
	{name: "live_mixed", clients: 1, onePerFive: 3,
		setup: func(c *corpus, s *schedule, dir string, p *setupParts) (deployment, error) {
			logPath := filepath.Join(dir, "delta.log")
			if err := os.Remove(logPath); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, err
			}
			sys, err := newLiveSystem(c, logPath, p)
			if err != nil {
				return nil, err
			}
			return newLiveWorkload(sys, c, s, logPath), nil
		}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// httpWorkload drives POST /search over loopback.
type httpWorkload struct {
	d      *httpDeployment
	c      *corpus
	client http.Client
}

func (w *httpWorkload) plain() searchFunc { return w.search(w.d.plain.url, nil) }

func (w *httpWorkload) traced(tr *tracer) (searchFunc, error) {
	if err := w.d.trace(tr); err != nil {
		return nil, err
	}
	return w.search(w.d.traced.url, tr), nil
}

func (w *httpWorkload) close() {
	w.d.close()
	w.client.CloseIdleConnections()
}

func (w *httpWorkload) search(url string, tr *tracer) searchFunc {
	url += "/search"
	return func(qi int, req int64) ([]core.Result, error) {
		r, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(w.c.queries[qi].body))
		if err != nil {
			return nil, err
		}
		r.Header.Set("Content-Type", "application/json")
		var sp openSpan
		if tr != nil {
			sp = tr.begin(spanRef{req: req}, "client.roundtrip")
			r.Header.Set(headerReq, strconv.FormatInt(req, 10))
			r.Header.Set(headerParent, strconv.FormatInt(sp.s.ID, 10))
		}
		// The round trip ends when the caller holds a decoded ranking.
		var body server.SearchResponse
		status, err := w.roundTrip(r, &body)
		if tr != nil {
			sp.end()
		}
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("POST /search: status %d", status)
		}
		if body.Truncated {
			return nil, errors.New("POST /search: truncated ranking")
		}
		out := make([]core.Result, len(body.Results))
		for i, res := range body.Results {
			out[i] = core.Result{Table: thetis.TableID(res.Table), Score: res.Score}
		}
		return out, nil
	}
}

func (w *httpWorkload) roundTrip(r *http.Request, into *server.SearchResponse) (int, error) {
	resp, err := w.client.Do(r)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(into)
}

// inprocWorkload calls System.SearchStatsContext directly.
type inprocWorkload struct {
	sys *thetis.System
	c   *corpus
}

func (w *inprocWorkload) plain() searchFunc                     { return w.search(nil) }
func (w *inprocWorkload) traced(tr *tracer) (searchFunc, error) { return w.search(tr), nil }
func (w *inprocWorkload) close()                                {}

// checkStats turns a ranking cut short into a failed operation.
func checkStats(st core.Stats) error {
	if st.Truncated {
		return fmt.Errorf("truncated ranking (shard errors: %v)", st.ShardErrors)
	}
	return nil
}

func (w *inprocWorkload) search(tr *tracer) searchFunc {
	ctx := context.Background()
	return func(qi int, req int64) ([]core.Result, error) {
		if tr == nil {
			res, st := w.sys.SearchStatsContext(ctx, w.c.queries[qi].q, topK)
			return res, checkStats(st)
		}
		sp := tr.begin(spanRef{req: req}, "client.call")
		res, st := w.sys.SearchStatsContext(ctx, w.c.queries[qi].q, topK)
		sp.end()
		tr.stages(&sp, st.Trace, st.TotalTime)
		countSearch(tr, st)
		return res, checkStats(st)
	}
}

// scatterWorkload calls the coordinator, which scatters over HTTP.
type scatterWorkload struct {
	d *scatterDeployment
	c *corpus
}

func (w *scatterWorkload) plain() searchFunc { return w.search(w.d.coord, nil) }

func (w *scatterWorkload) traced(tr *tracer) (searchFunc, error) {
	if err := w.d.trace(w.c, tr); err != nil {
		return nil, err
	}
	return w.search(w.d.traced, tr), nil
}

func (w *scatterWorkload) close() {
	w.d.close()
	http.DefaultClient.CloseIdleConnections()
}

func (w *scatterWorkload) search(coord *shard.Coordinator, tr *tracer) searchFunc {
	return func(qi int, req int64) ([]core.Result, error) {
		if tr == nil {
			res, st := coord.Search(context.Background(), w.c.queries[qi].q, topK)
			return res, checkStats(st)
		}
		sp := tr.begin(spanRef{req: req}, "coordinator.search")
		res, st := coord.Search(withSpan(context.Background(), sp.ref()), w.c.queries[qi].q, topK)
		sp.end()
		if merge := st.Trace.Stage("merge"); merge != nil {
			// The merge is the coordinator's last step before it returns.
			tr.add(sp.ref(), "merge", sp.s.End-int64(merge.Wall), sp.s.End)
		}
		return res, checkStats(st)
	}
}

const (
	searchesPerMutation = 4
	liveDepth           = 16  // tables added by the stream and not yet removed
	compactEvery        = 200 // mutations between Compact calls
)

// liveWorkload searches a System in process while a mutation stream
// writes it: after every fourth search the client hands the next mutation
// over (handOff, the load generator's after hook, so the wait is in no
// search's latency). With two or more CPUs a writer goroutine applies it
// while the searches go on, so a search can meet the write lock, an fsync
// under it, or a compaction; on one CPU the searching client applies it
// itself. Either way there is one searching client and at most one
// mutation in flight: a hand-over waits for the previous mutation.
type liveWorkload struct {
	inproc  inprocWorkload
	sched   *schedule
	logPath string

	searches atomic.Int64
	tr       atomic.Pointer[tracer]
	tokens   chan struct{} // nil: mutations run on the searching client
	pending  sync.WaitGroup
	stopped  chan struct{}

	// Below: owned by whoever applies mutations; read after quiesce.
	added     []thetis.TableID // queue of tables this stream added, oldest first
	adds      int
	mutations int
	failed    int
	writes    writeStats
}

// writeStats are the mutation latencies of one pass.
type writeStats struct {
	adds, removes, compacts []time.Duration
}

func (s *writeStats) add(o writeStats) {
	s.adds = append(s.adds, o.adds...)
	s.removes = append(s.removes, o.removes...)
	s.compacts = append(s.compacts, o.compacts...)
}

func newLiveWorkload(sys *thetis.System, c *corpus, s *schedule, logPath string) *liveWorkload {
	w := &liveWorkload{inproc: inprocWorkload{sys: sys, c: c}, sched: s, logPath: logPath}
	if runtime.NumCPU() >= 2 {
		w.tokens = make(chan struct{})
		w.stopped = make(chan struct{})
		go func() {
			defer close(w.stopped)
			for range w.tokens {
				w.mutate()
				w.pending.Done()
			}
		}()
	}
	return w
}

func (w *liveWorkload) plain() searchFunc { return w.search(nil) }

func (w *liveWorkload) traced(tr *tracer) (searchFunc, error) {
	w.tr.Store(tr)
	return w.search(tr), nil
}

func (w *liveWorkload) search(tr *tracer) searchFunc { return w.inproc.search(tr) }

// handOff is called by the searching client after each search.
func (w *liveWorkload) handOff() {
	if w.searches.Add(1)%searchesPerMutation != 0 {
		return
	}
	if w.tokens == nil {
		w.mutate()
		return
	}
	w.pending.Add(1)
	w.tokens <- struct{}{}
}

// quiesce waits for the mutation in flight and hands back the pass's
// write latencies.
func (w *liveWorkload) quiesce() writeStats {
	w.pending.Wait()
	out := w.writes
	w.writes = writeStats{}
	return out
}

func (w *liveWorkload) close() {
	if w.tokens != nil {
		w.pending.Wait()
		close(w.tokens)
		<-w.stopped
		w.tokens = nil
	}
	w.inproc.sys.CloseDeltaLog() // close error: the log is read back by replayCheck, which would fail
}

// mutate applies the stream's next mutation: an add until liveDepth tables
// of the stream are live, then a removal of the oldest, which makes room
// for the next add. Every compactEvery-th mutation is followed by Compact.
func (w *liveWorkload) mutate() {
	sys, tr := w.inproc.sys, w.tr.Load()
	req := spanRef{req: -int64(w.mutations) - 1}
	name, into := "live.remove", &w.writes.removes
	if len(w.added) < liveDepth {
		name, into = "live.add", &w.writes.adds
	}
	var sp openSpan
	if tr != nil {
		sp = tr.begin(req, name)
	}
	start := time.Now()
	var err error
	if name == "live.add" {
		var id thetis.TableID
		id, err = sys.AddTableJSON(w.sched.fresh[w.adds%len(w.sched.fresh)])
		w.added = append(w.added, id)
		w.adds++
	} else {
		err = sys.RemoveTable(w.added[0])
		w.added = w.added[1:]
	}
	*into = append(*into, time.Since(start))
	if tr != nil {
		sp.end()
	}
	if err != nil {
		w.failed++
	}
	w.mutations++
	if w.mutations%compactEvery == 0 {
		if tr != nil {
			sp = tr.begin(req, "live.compact")
		}
		start = time.Now()
		sys.Compact()
		w.writes.compacts = append(w.writes.compacts, time.Since(start))
		if tr != nil {
			sp.end()
		}
	}
}

// replayCheck restarts a fresh System on the base lake, replays the delta
// log into it and compares it with the live one: same epoch, same table
// count, and the same ranking for every query. It returns the replay time
// and how many of those comparisons failed.
func (w *liveWorkload) replayCheck(c *corpus) (replayS float64, checks, mismatches int, err error) {
	live := w.inproc.sys
	if err := live.DeltaLogError(); err != nil {
		return 0, 0, 0, fmt.Errorf("delta log stopped logging: %w", err)
	}
	if err := live.CloseDeltaLog(); err != nil {
		return 0, 0, 0, err
	}
	fresh := newTypeSystem(c, &setupParts{}, true)
	start := time.Now()
	if err := fresh.AttachDeltaLog(w.logPath); err != nil {
		return 0, 0, 0, fmt.Errorf("replay delta log: %w", err)
	}
	replayS = time.Since(start).Seconds()
	defer fresh.CloseDeltaLog()
	checks = 2 + len(c.queries)
	if fresh.IndexEpoch() != live.IndexEpoch() {
		mismatches++
	}
	if fresh.NumTables() != live.NumTables() {
		mismatches++
	}
	for _, q := range c.queries {
		if !sameRanking(fresh.Search(q.q, topK), live.Search(q.q, topK)) {
			mismatches++
		}
	}
	return replayS, checks, mismatches, nil
}

// sameRanking reports whether two rankings list the same tables with the
// same scores, bit for bit.
func sameRanking(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
