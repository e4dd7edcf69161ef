package main

// Every construction of the system under test lives in this file, so that
// a later change to how Thetis is assembled (ROADMAP item 2 folds the
// three facades into one) touches the benchmark here and nowhere else.
// The scatter path is assembled at the shard.Searcher / remote.NewShard
// seam, not through ShardedSystem or RemoteSharded.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"thetis"
	"thetis/internal/core"
	"thetis/internal/embedding"
	"thetis/internal/lake"
	"thetis/internal/remote"
	"thetis/internal/server"
	"thetis/internal/shard"
)

// setupParts splits setup_s: from handing the generated tables to the
// system until the first query can be served.
type setupParts struct {
	ingest, similarity, indexBuild, embeddingLoad, artifactPush, total time.Duration
}

// fields lists the parts, for taking a median of each over repetitions.
func (p *setupParts) fields() []*time.Duration {
	return []*time.Duration{&p.ingest, &p.similarity, &p.indexBuild, &p.embeddingLoad, &p.artifactPush, &p.total}
}

// since returns the time elapsed since *mark and moves the mark to now.
func since(mark *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*mark)
	*mark = now
	return d
}

// newTypeSystem builds the paper's headline configuration: type-Jaccard σ
// and, with index, the default LSEI (30,10) at one vote.
func newTypeSystem(c *corpus, p *setupParts, index bool) *thetis.System {
	mark := time.Now()
	sys := thetis.New(c.kg.Graph)
	for _, t := range c.lake.Tables() {
		sys.AddTable(t)
	}
	p.ingest += since(&mark)
	sys.UseTypeSimilarity()
	p.similarity += since(&mark)
	if index {
		sys.BuildIndex(thetis.DefaultIndexConfig())
		p.indexBuild += since(&mark)
	}
	return sys
}

// newEmbeddingSystem builds Algorithm 1 over the whole lake: embedding-
// cosine σ from the serialized store, no index.
func newEmbeddingSystem(c *corpus, p *setupParts) (*thetis.System, error) {
	mark := time.Now()
	sys := thetis.New(c.kg.Graph)
	for _, t := range c.lake.Tables() {
		sys.AddTable(t)
	}
	p.ingest += since(&mark)
	if err := sys.LoadEmbeddings(bytes.NewReader(c.embeddings)); err != nil {
		return nil, fmt.Errorf("load embeddings: %w", err)
	}
	p.embeddingLoad += since(&mark)
	sys.UseEmbeddingSimilarity()
	p.similarity += since(&mark)
	return sys, nil
}

// listener is a loopback HTTP server. close returns once Serve has ended.
type listener struct {
	url   string
	close func()
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns ErrServerClosed on Shutdown; nothing to report
	}()
	return &listener{
		url: "http://" + ln.Addr().String(),
		close: func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if srv.Shutdown(ctx) != nil {
				srv.Close()
			}
			<-done
		},
	}, nil
}

// tracedBackend decorates the server.Backend handed to server.New with
// spans around query resolution and search. ParseQuery receives no
// context, so the handler wrapper publishes the request in flight in cur;
// that is sound because the traced HTTP pass runs one client.
type tracedBackend struct {
	*thetis.System
	tr  *tracer
	cur *atomic.Pointer[spanRef]
}

func (b *tracedBackend) ParseQuery(text string) (thetis.Query, error) {
	sp := b.tr.begin(*b.cur.Load(), "backend.parse_query")
	defer sp.end()
	return b.System.ParseQuery(text)
}

func (b *tracedBackend) SearchStatsContext(ctx context.Context, q thetis.Query, k int) ([]thetis.Result, thetis.SearchStats) {
	sp := b.tr.begin(spanFrom(ctx), "backend.search")
	res, st := b.System.SearchStatsContext(ctx, q, k)
	sp.end()
	b.tr.stages(&sp, st.Trace, st.TotalTime)
	countSearch(b.tr, st)
	return res, st
}

// countSearch records the counts a search returns, at the boundary that
// timed it.
func countSearch(tr *tracer, st core.Stats) {
	tr.count("candidates", float64(st.Candidates))
	tr.count("sigma_hits", float64(st.SigmaHits))
	tr.count("sigma_misses", float64(st.SigmaMisses))
	tr.count("mapping_cpu_ms", float64(st.MappingTime)/float64(time.Millisecond))
	if score := st.Trace.Stage("score"); score != nil {
		workers := min(runtime.GOMAXPROCS(0), max(st.Candidates, 1))
		tr.count("score_worker_ms", float64(score.Wall)/float64(time.Millisecond)*float64(workers))
	}
	if vote := st.Trace.Stage("vote"); vote != nil && vote.Items == 0 {
		tr.count("fullscan_fallback", 1)
	}
}

const (
	headerReq    = "X-Bench-Req"
	headerParent = "X-Bench-Parent"
)

// traceHandler wraps an http.Handler with a span whose parent arrives in
// the request headers, and passes the span down in the request context.
type traceHandler struct {
	inner http.Handler
	tr    *tracer
	name  string
	cur   *atomic.Pointer[spanRef] // may be nil
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return w.ResponseWriter.Write(b)
}

func (h *traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get(headerReq), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(headerParent), 10, 64)
	sp := h.tr.begin(spanRef{req, parent}, h.name)
	ref := sp.ref()
	if h.cur != nil {
		h.cur.Store(&ref)
	}
	cw := &countingWriter{ResponseWriter: w}
	h.inner.ServeHTTP(cw, r.WithContext(withSpan(r.Context(), ref)))
	sp.end()
	h.tr.count(h.name+".resp_bytes", float64(cw.n))
}

// headerTransport carries the span in the request's context across HTTP
// and counts request body bytes (traceHandler counts the response's).
type headerTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *headerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref := spanFrom(r.Context())
	r = r.Clone(r.Context())
	r.Header.Set(headerReq, strconv.FormatInt(ref.req, 10))
	r.Header.Set(headerParent, strconv.FormatInt(ref.id, 10))
	t.tr.count("remote.req_bytes", float64(r.ContentLength))
	return t.base.RoundTrip(r)
}

// httpDeployment is lsei_http: a System behind internal/server on a
// loopback listener.
type httpDeployment struct {
	sys    *thetis.System
	plain  *listener
	traced *listener // nil until trace
}

func newHTTPDeployment(c *corpus, p *setupParts) (*httpDeployment, error) {
	start := time.Now()
	sys := newTypeSystem(c, p, true)
	ln, err := listen(server.New(sys))
	if err != nil {
		return nil, err
	}
	p.total += time.Since(start)
	return &httpDeployment{sys: sys, plain: ln}, nil
}

// trace serves the same System a second time, with the handler wrapped
// and the backend decorated.
func (d *httpDeployment) trace(tr *tracer) error {
	cur := &atomic.Pointer[spanRef]{}
	cur.Store(&spanRef{})
	h := &traceHandler{
		inner: server.New(&tracedBackend{System: d.sys, tr: tr, cur: cur}),
		tr:    tr, name: "server.handler", cur: cur,
	}
	ln, err := listen(h)
	d.traced = ln
	return err
}

func (d *httpDeployment) close() {
	d.plain.close()
	if d.traced != nil {
		d.traced.close()
	}
}

const scatterShards = 2

// tracedDaemon decorates a shard daemon's System with a span around the
// scatter leg it serves. The wire carries the engine's total time and no
// prefilter stages, so the daemon-side prefilter stays inside this span's
// self time.
type tracedDaemon struct {
	*thetis.System
	tr *tracer
}

func (d *tracedDaemon) ServeShardSearch(ctx context.Context, req remote.SearchRequest) remote.SearchPayload {
	sp := d.tr.begin(spanFrom(ctx), "daemon.search")
	p := d.System.ServeShardSearch(ctx, req)
	sp.end()
	d.tr.add(sp.ref(), "engine.search", sp.s.Start, sp.s.Start+p.Stats.TotalMicro*int64(time.Microsecond))
	d.tr.count("candidates", float64(p.Stats.Candidates))
	return p
}

// tracedLeg decorates one shard.Searcher with the scatter leg's span.
type tracedLeg struct {
	inner shard.Searcher
	tr    *tracer
	name  string
}

func (l *tracedLeg) SearchShard(ctx context.Context, q core.Query, k int, opts shard.SearchOptions) ([]core.Result, core.Stats) {
	sp := l.tr.begin(spanFrom(ctx), l.name)
	res, st := l.inner.SearchShard(withSpan(ctx, sp.ref()), q, k, opts)
	sp.end()
	return res, st
}

// scatterDeployment is scatter_remote: a coordinator over remote.Shard
// clients, each talking to a loopback daemon that serves /shard/search
// from its own System over its hash partition. full is the coordinator's
// local copy of the whole lake: it computes the global artifacts, as a
// coordinator daemon does. It is set up without an index, which a
// coordinator does not need; verification builds one on it afterwards to
// make it the unsharded System the scatter path must match bit for bit.
type scatterDeployment struct {
	full    *thetis.System
	daemons []*thetis.System
	globals [][]thetis.TableID
	coord   *shard.Coordinator
	traced  *shard.Coordinator // nil until trace
	labels  []string           // metric labels of the traced remote shards
	lns     []*listener
}

func newScatterDeployment(c *corpus, p *setupParts) (*scatterDeployment, error) {
	start := time.Now()
	d := &scatterDeployment{full: newTypeSystem(c, p, false)}
	part := lake.NewHashPartitioner(scatterShards)
	mark := time.Now()
	for i := 0; i < scatterShards; i++ {
		d.daemons = append(d.daemons, thetis.New(c.kg.Graph))
	}
	for _, t := range c.lake.Tables() {
		d.daemons[part.Assign(t)].AddTable(t)
	}
	p.ingest += since(&mark)
	d.globals = d.full.ShardGlobalIDs(part)
	searchers := make([]shard.Searcher, scatterShards)
	clients := make([]*remote.Shard, scatterShards)
	for i, sys := range d.daemons {
		sys.UseTypeSimilarity()
		ln, err := listen(server.New(sys))
		if err != nil {
			d.close()
			return nil, err
		}
		d.lns = append(d.lns, ln)
		clients[i], err = remote.NewShard(fmt.Sprintf("bench-%d", i), c.kg.Graph, d.globals[i],
			[]remote.Replica{{URL: ln.url}}, remote.Options{})
		if err != nil {
			d.close()
			return nil, err
		}
		searchers[i] = clients[i]
	}
	p.similarity += since(&mark)
	cfg := thetis.DefaultIndexConfig()
	artifacts := d.full.ComputeShardArtifacts(&cfg, 1)
	for _, cl := range clients {
		// The daemon builds its LSEI under the shipped global filter here.
		if err := cl.PushArtifacts(context.Background(), artifacts); err != nil {
			d.close()
			return nil, err
		}
	}
	p.artifactPush += since(&mark)
	d.coord = shard.NewCoordinator(searchers...)
	p.total += time.Since(start)
	return d, nil
}

// trace serves every daemon a second time behind wrappers and builds a
// second coordinator over decorated remote shards.
func (d *scatterDeployment) trace(c *corpus, tr *tracer) error {
	searchers := make([]shard.Searcher, scatterShards)
	for i, sys := range d.daemons {
		ln, err := listen(&traceHandler{
			inner: server.New(&tracedDaemon{System: sys, tr: tr}),
			tr:    tr, name: "daemon.handler",
		})
		if err != nil {
			return err
		}
		d.lns = append(d.lns, ln)
		label := fmt.Sprintf("bench-traced-%d", i)
		client := &http.Client{Transport: &headerTransport{base: http.DefaultTransport, tr: tr}}
		rs, err := remote.NewShard(label, c.kg.Graph, d.globals[i],
			[]remote.Replica{{URL: ln.url, Client: client}}, remote.Options{})
		if err != nil {
			return err
		}
		d.labels = append(d.labels, label)
		searchers[i] = &tracedLeg{inner: rs, tr: tr, name: fmt.Sprintf("leg[%d]", i)}
	}
	d.traced = shard.NewCoordinator(searchers...)
	return nil
}

func (d *scatterDeployment) close() {
	for _, ln := range d.lns {
		ln.close()
	}
}

// newLiveSystem is the headline configuration with a delta log attached:
// every mutation appends one record and fsyncs it before it is applied
// (thetis.AttachDeltaLog's only flush policy).
func newLiveSystem(c *corpus, logPath string, p *setupParts) (*thetis.System, error) {
	start := time.Now()
	sys := newTypeSystem(c, p, true)
	if err := sys.AttachDeltaLog(logPath); err != nil {
		return nil, fmt.Errorf("attach delta log: %w", err)
	}
	p.total += time.Since(start)
	return sys, nil
}

// reference is the hand-assembled pipeline over the harness's own lake
// that rankings are checked against and layers are timed on: the LSEI
// (nil for brute force) feeding core.Engine directly, without the facade.
// p1 is the same engine with one scoring worker, the reference ranking.
type reference struct {
	index  *core.LSEI
	engine *core.Engine
	p1     *core.Engine
	sim    core.Similarity
	buildS float64 // LSEI build time, 0 without an index
}

func newReference(c *corpus, embeddings bool) (*reference, error) {
	r := &reference{}
	if embeddings {
		store, err := embedding.ReadStore(bytes.NewReader(c.embeddings))
		if err != nil {
			return nil, err
		}
		r.sim = core.NewEmbeddingCosine(c.kg.Graph, store)
	} else {
		tj := core.NewTypeJaccard(c.kg.Graph)
		r.sim = tj
		start := time.Now()
		r.index = core.BuildTypeLSEI(c.lake, tj, core.DefaultLSEIConfig())
		r.buildS = time.Since(start).Seconds()
	}
	r.engine = core.NewEngine(c.lake, r.sim)
	p1 := *r.engine
	p1.Parallelism = 1
	r.p1 = &p1
	return r, nil
}

// candidates is the reference prefilter: the tables the index leaves for
// q, or nil (score every table) without an index or when it leaves none,
// which is the facade's full-scan fallback.
func (r *reference) candidates(q core.Query) []lake.TableID {
	if r.index == nil {
		return nil
	}
	if found := r.index.CandidatesTracedContext(context.Background(), q, 1, nil); len(found) > 0 {
		return found
	}
	return nil
}

// rank is the reference ranking of q: one scoring worker over the
// candidates the reference index yields.
func (r *reference) rank(q core.Query) []core.Result {
	res, _ := core.SearchWithIndex(context.Background(), r.p1, r.index, 1, q, topK, core.FallbackFullScan)
	return res
}
