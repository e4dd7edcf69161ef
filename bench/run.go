package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"thetis/internal/core"
	"thetis/internal/lake"
	tmetrics "thetis/internal/metrics"
	"thetis/internal/obs"
)

// windowSlices is how many passes the measured window is cut into, with the
// host's speed sampled between them (calib.go).
const windowSlices = 8

// runConfig is one invocation: a workload, a seed, a window and whether
// the window is traced.
type runConfig struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	setupReps int
	calibRuns int    // runs of each calibration kernel per sample (calib.go)
	outDir    string // traces and the delta log go here
}

// result is what one run reports: the contract's last line of output.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"-"`

	notes        []string // what failed, for the human reader
	percentiles  map[string]percentile
	scheduleHash string
	maxClients   int
	mutations    int
	speed        speed // of the host around the measured window (calib.go)
}

func (r *result) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setupMedians repeats set-up and keeps the last deployment for the run.
// Every part is the median over the repetitions. factor is the host's
// speed around them.
func setupMedians(w workload, c *corpus, s *schedule, dir string, reps int, cal *calibrator) (d deployment, med setupParts, factor float64, err error) {
	cal.sample()
	var parts []setupParts
	for i := 0; i < reps; i++ {
		if d != nil {
			d.close()
		}
		d = nil
		runtime.GC()
		var p setupParts
		if d, err = w.setup(c, s, dir, &p); err != nil {
			return nil, setupParts{}, 0, err
		}
		parts = append(parts, p)
		cal.sample()
	}
	factor = cal.speed().factor
	for i, field := range med.fields() {
		xs := make([]float64, len(parts))
		for j := range parts {
			xs[j] = float64(*parts[j].fields()[i])
		}
		*field = time.Duration(median(xs))
	}
	return d, med, factor, nil
}

// queriesOf lists the distinct queries a workload issues.
func queriesOf(w workload) []int {
	var out []int
	for i := 0; i < topics; i++ {
		if w.onePerFive > 0 {
			out = append(out, i)
		}
		out = append(out, topics+i)
	}
	return out
}

func tableIDs(res []core.Result) []int {
	out := make([]int, len(res))
	for i, r := range res {
		out[i] = int(r.Table)
	}
	return out
}

// liveHeapMB is HeapAlloc after two forced collections: what the system
// (and the harness around it) keeps, not what the last requests left.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// session is one run in progress: the deployment under load and the
// result being filled.
type session struct {
	cfg   runConfig
	w     workload
	c     *corpus
	d     deployment
	live  *liveWorkload // d, when the workload mutates the lake
	gen   *loadgen
	check func(qi int, got []core.Result) bool // nil when rankings may change
	res   *result
}

// pass drives one closed-loop pass and books its operations. On
// live_mixed it returns once the mutation in flight has landed, with the
// pass's write latencies.
func (s *session) pass(name string, length time.Duration, search searchFunc) (loadResult, writeStats) {
	var after func()
	if s.live != nil {
		after = s.live.handOff
	}
	lr := s.gen.run(s.w.clients, length, search, s.check, after)
	s.res.Attempted += len(lr.latencies)
	if lr.firstErr != nil {
		s.res.fail(lr.failed, "%s: %d failed searches, first: %v", name, lr.failed, lr.firstErr)
	} else {
		s.res.fail(lr.failed, "%s: %d rankings differ from the verified ones", name, lr.failed)
	}
	var writes writeStats
	if s.live != nil {
		writes = s.live.quiesce()
	}
	return lr, writes
}

// runWorkload runs one workload once and returns the contract's result.
func runWorkload(cfg runConfig, c *corpus) (*result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if w.embeddings {
		c.trainEmbeddings()
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	sched := newSchedule(c, cfg.seed, w.onePerFive, !w.static)
	cal := newCalibrator(cfg.calibRuns)
	d, setup, setupFactor, err := setupMedians(w, c, sched, dir, cfg.setupReps, cal)
	if err != nil {
		return nil, err
	}
	defer d.close()

	res := &result{Metrics: map[string]float64{}, percentiles: map[string]percentile{}, scheduleHash: sched.hash}
	plain := d.plain()

	// Verification, untimed: every distinct query's ranking against the
	// reference pipeline with one scoring worker.
	ref, err := newReference(c, w.embeddings)
	if err != nil {
		return nil, err
	}
	expected := map[int][]core.Result{}
	ndcg := 0.0
	queries := queriesOf(w)
	live, _ := d.(*liveWorkload)
	verify := plain
	if live != nil {
		verify = live.inproc.plain() // the lake must stand still while rankings are checked
	}
	var unsharded func(core.Query) []core.Result
	if sc, ok := d.(*scatterWorkload); ok {
		// The unsharded System the scatter path must equal bit for bit.
		sc.d.full.BuildIndex(core.DefaultLSEIConfig())
		unsharded = func(q core.Query) []core.Result { return sc.d.full.Search(q, topK) }
	}
	for _, qi := range queries {
		q := c.queries[qi]
		got, err := verify(qi, 0)
		res.Attempted++
		switch {
		case err != nil:
			res.fail(1, "verification %s: %v", q.name, err)
		case !sameRanking(got, ref.rank(q.q)):
			res.fail(1, "verification %s: ranking differs from the one-worker reference", q.name)
		case unsharded != nil && !sameRanking(got, unsharded(q.q)):
			res.fail(1, "verification %s: scatter ranking differs from the unsharded System", q.name)
		}
		expected[qi] = got
		ndcg += tmetrics.NDCG(tableIDs(got), q.grades, topK)
	}
	ndcg /= float64(len(queries))

	ses := &session{cfg: cfg, w: w, c: c, d: d, live: live, gen: &loadgen{order: sched.order}, res: res}
	if w.static {
		ses.check = func(qi int, got []core.Result) bool { return sameRanking(got, expected[qi]) }
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	ses.pass("warm-up", min(2*time.Second, window/3), plain)

	m := res.Metrics
	if !cfg.trace {
		// The window runs in slices with the host's speed sampled at every
		// boundary: a slow phase of the host that starts inside the window
		// is then in the factor, which two samples at the ends would miss.
		cal.sample()
		var lr loadResult
		var writes writeStats
		for i := 0; i < windowSlices; i++ {
			part, w := ses.pass("timed window", window/windowSlices, plain)
			lr.add(part)
			writes.add(w)
			cal.sample()
		}
		res.speed = cal.speed()
		f := res.speed.factor
		ref, cal = nil, nil // the harness's, not part of the heap the system keeps
		ms := millis(lr.latencies)
		for name, p := range map[string]float64{"latency_p50_ms": 50, "latency_p95_ms": 95, "latency_p99_ms": 99} {
			res.percentile(name, ms, p, f)
		}
		m["throughput_qps"] = float64(len(lr.latencies)) / lr.elapsed.Seconds() / f
		m["setup_s"] = setup.total.Seconds() * setupFactor
		m["ndcg_at_10"] = ndcg
		m["heap_live_mb"] = liveHeapMB()
		if live != nil {
			// Per-layer by BENCHMARK.json's rules (an end-to-end metric has
			// to exist on every workload), end-to-end by purpose: measured
			// in this window too, so that a set has them once per run and
			// -compare can judge them (spec.go, judgedLayer).
			res.writeLatencies(writes, f)
		}
	} else {
		cal.sample()
		if err := ses.traced(ref, setup); err != nil {
			return nil, err
		}
		cal.sample()
		// Per-layer times are as measured; this is the factor to compare
		// them with the end-to-end ones.
		res.speed = cal.speed()
		m["harness.cpu_speed_factor"] = res.speed.factor
	}

	if live != nil {
		res.Attempted += live.mutations
		res.mutations = live.mutations
		res.fail(live.failed, "%d mutations failed", live.failed)
		replayS, checks, mismatches, err := live.replayCheck(c)
		if err != nil {
			res.fail(1, "replay: %v", err)
		}
		res.Attempted += checks
		res.fail(mismatches, "replay: %d of %d comparisons between the replayed and the live System differ", mismatches, checks)
		if cfg.trace {
			m["live.replay_s"] = replayS
		}
	}
	res.maxClients = ses.gen.maxClients
	res.Correct = res.Failed == 0
	m["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	return res, nil
}

// percentile reports the p-th percentile of sample, scaled by the host's
// speed factor, under name and keeps its sample count for the printed line.
func (r *result) percentile(name string, sample []float64, p, factor float64) {
	pc := percentileOf(sample, p)
	pc.Value *= factor
	r.percentiles[name] = pc
	r.Metrics[name] = pc.Value
}

// writeLatencies reports a pass's mutation latencies, adds and removals
// together: the issue's write_p50_ms and write_p95_ms.
func (r *result) writeLatencies(w writeStats, factor float64) {
	all := millis(append(append([]time.Duration(nil), w.adds...), w.removes...))
	r.percentile("live.write_ms_p50", all, 50, factor)
	r.percentile("live.write_ms_p95", all, 95, factor)
}

// runtimeSampler polls heap size and goroutine count while load runs; the
// peaks are what a pass reports.
type runtimeSampler struct {
	stop, done           chan struct{}
	heapPeak, goroutines float64
}

func startSampler() *runtimeSampler {
	s := &runtimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				metrics.Read(sample)
				s.heapPeak = max(s.heapPeak, float64(sample[0].Value.Uint64())/(1<<20))
				s.goroutines = max(s.goroutines, float64(runtime.NumGoroutine()))
			}
		}
	}()
	return s
}

func (s *runtimeSampler) finish() {
	close(s.stop)
	<-s.done
}

// traced is the --trace 1 window: a traced pass through the wrapped
// assembly between two untraced passes (the base of the overhead ratio and
// of the runtime counters), then the layers timed one by one on the
// reference pipeline. It fills every per-layer metric the workload has.
func (ses *session) traced(ref *reference, setup setupParts) error {
	cfg, w, c, d, live, res := ses.cfg, ses.w, ses.c, ses.d, ses.live, ses.res
	m := res.Metrics
	window := time.Duration(cfg.seconds * float64(time.Second))

	// Untraced passes, one before and one after the traced pass so that a
	// drift over the run does not read as tracing overhead, with the Go
	// runtime watched from outside.
	var untraced loadResult
	var mallocs, allocBytes uint64
	untracedPass := func() {
		var before, after runtime.MemStats
		sampler := startSampler()
		runtime.ReadMemStats(&before)
		lr, _ := ses.pass("untraced pass", window/8, d.plain())
		runtime.ReadMemStats(&after)
		sampler.finish()
		untraced.add(lr)
		mallocs += after.Mallocs - before.Mallocs
		allocBytes += after.TotalAlloc - before.TotalAlloc
		m["runtime.gc_cycles"] += float64(after.NumGC - before.NumGC)
		m["runtime.gc_pause_total_ms"] += float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
		for i := before.NumGC; i < after.NumGC && i < before.NumGC+256; i++ {
			m["runtime.gc_pause_max_ms"] = max(m["runtime.gc_pause_max_ms"], float64(after.PauseNs[i%256])/1e6)
		}
		m["runtime.heap_peak_mb"] = max(m["runtime.heap_peak_mb"], sampler.heapPeak)
		m["runtime.goroutines_peak"] = max(m["runtime.goroutines_peak"], sampler.goroutines)
	}
	untracedPass()

	// Traced pass.
	tr := newTracer()
	traced, err := d.traced(tr)
	if err != nil {
		return err
	}
	rescatters, shed, timeouts := obs.ShardRescattersTotal().Value(), obs.HTTPShedTotal(nil, "/search").Value(), obs.HTTPTimeoutsTotal(nil, "/search").Value()
	lr, writes := ses.pass("traced pass", window*9/20, traced)
	if live != nil {
		live.tr.Store(nil)
	}
	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl")); err != nil {
		return err
	}
	s := tr.summarize()

	untracedPass()
	m["runtime.alloc_mb_per_s"] = float64(allocBytes) / (1 << 20) / untraced.elapsed.Seconds()
	m["runtime.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["loadgen.client_self_us_p50"] = percentileOf(millis(untraced.gaps), 50).Value * 1000
	if _, ok := d.(*httpWorkload); ok {
		m["server.allocs_per_req"] = float64(mallocs) / float64(len(untraced.latencies))
	}
	m["trace.overhead_ratio"] = percentileOf(millis(lr.latencies), 50).Value / percentileOf(millis(untraced.latencies), 50).Value
	// Time inside a search call that none of the stages it returned covers.
	opaque := sum(s.self["backend.search"]) + sum(s.self["client.call"]) + sum(s.self["daemon.search"])
	m["trace.unattributed_share"] = opaque / s.rootTotal

	m["engine.search_ms_p50"] = s.durP50("engine.search")
	if len(s.dur["engine.rank"]) > 0 {
		m["engine.rank_us_p50"] = s.durP50("engine.rank") * 1000
	}
	if busy := sum(s.dur["engine.search"]); busy > 0 {
		m["engine.tables_per_s"] = tr.countSum("candidates") / (busy / 1000)
	}
	if worker := tr.countSum("score_worker_ms"); worker > 0 {
		m["engine.mapping_cpu_share"] = tr.countSum("mapping_cpu_ms") / worker
	}
	if lookups := tr.countSum("sigma_hits") + tr.countSum("sigma_misses"); lookups > 0 {
		m["engine.sigma_lookups_per_query"] = lookups / float64(len(s.dur["engine.search"]))
		m["engine.sigma_hit_ratio"] = tr.countSum("sigma_hits") / lookups
	}
	if len(s.dur["prefilter.candidates"]) > 0 {
		m["prefilter.candidates_ms_p50"] = s.durP50("prefilter.candidates")
		m["prefilter.probe_ms_p50"] = s.durP50("prefilter.probe")
		m["prefilter.vote_ms_p50"] = s.durP50("prefilter.vote")
		m["prefilter.candidates_mean"] = tr.countMean("candidates")
		m["prefilter.reduction_ratio"] = 1 - tr.countMean("candidates")/float64(c.lake.NumTables())
		m["prefilter.fullscan_fallback_count"] = tr.countSum("fullscan_fallback")
	}

	switch dd := d.(type) {
	case *httpWorkload:
		m["server.handler_self_ms_p50"] = s.selfP50("server.handler")
		m["server.transport_ms_p50"] = s.selfP50("client.roundtrip")
		m["server.resp_bytes_mean"] = tr.countMean("server.handler.resp_bytes")
		m["server.shed_count"] = float64(obs.HTTPShedTotal(nil, "/search").Value() - shed)
		m["server.timeout_count"] = float64(obs.HTTPTimeoutsTotal(nil, "/search").Value() - timeouts)
		m["thetis.parse_query_us_p50"] = s.durP50("backend.parse_query") * 1000
	case *scatterWorkload:
		m["shard.coordinator_self_ms_p50"] = s.selfP50("coordinator.search")
		m["shard.leg_ms_p50"] = s.durP50("leg")
		var skews []float64
		for _, legs := range s.childDurations("coordinator.search", "leg") {
			if mu := mean(legs); mu > 0 {
				slowest := 0.0
				for _, l := range legs {
					slowest = max(slowest, l)
				}
				skews = append(skews, slowest/mu)
			}
		}
		m["shard.leg_skew"] = mean(skews)
		m["shard.rescatter_count"] = float64(obs.ShardRescattersTotal().Value() - rescatters)
		m["merge.merge_ranked_us_p50"] = s.durP50("merge") * 1000
		m["remote.wire_ms_p50"] = s.selfP50("leg")
		m["remote.req_bytes_mean"] = tr.countMean("remote.req_bytes")
		m["remote.resp_bytes_mean"] = tr.countMean("daemon.handler.resp_bytes")
		for _, label := range dd.d.labels {
			m["remote.retries"] += float64(obs.RemoteShardRetriesTotal(label).Value())
			m["remote.hedges"] += float64(obs.RemoteShardHedgesTotal(label).Value())
			m["remote.failovers"] += float64(obs.RemoteShardFailoversTotal(label).Value())
			m["remote.breaker_opens"] += float64(obs.RemoteShardBreakerOpenTotal(label).Value())
		}
	case *liveWorkload:
		res.writeLatencies(writes, 1)
		if n := len(writes.adds) + len(writes.removes); n > 0 {
			m["live.handoff_wait_ms_mean"] = sum(millis(lr.handoffs)) / float64(n)
		}
		m["live.add_ms_p50"] = percentileOf(millis(writes.adds), 50).Value
		m["live.remove_ms_p50"] = percentileOf(millis(writes.removes), 50).Value
		m["live.compact_ms_mean"] = mean(millis(writes.compacts))
		m["live.compact_count"] = float64(len(writes.compacts))
		m["live.search_stall_ms_max"] = s.longestOverlapping("client.call", "live.add", "live.remove", "live.compact")
		m["live.epoch_final"] = float64(live.inproc.sys.IndexEpoch())
		m["live.tombstones_final"] = obs.IndexTombstones(nil).Value()
		if fi, err := os.Stat(live.logPath); err == nil && live.mutations > 0 {
			m["atomicio.delta_bytes_per_mutation"] = float64(fi.Size()) / float64(live.mutations)
		}
	}

	m["setup.ingest_s"] = setup.ingest.Seconds()
	m["setup.similarity_s"] = setup.similarity.Seconds()
	m["setup.index_build_s"] = setup.indexBuild.Seconds()
	m["setup.embedding_load_s"] = setup.embeddingLoad.Seconds()
	m["setup.artifact_push_s"] = setup.artifactPush.Seconds()
	m["harness.datagen_s"] = c.datagenS
	m["harness.embedding_train_s"] = c.trainS

	layerTimings(c, w, d, ref, window*3/10, m)
	return nil
}

// sink keeps the compiler from dropping a measured call.
var sink any

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// layerTimings times single layers through their public entry points, on
// the reference pipeline over the harness's own lake, one caller, nothing
// else running. budget bounds the per-query loop; the fixed-count
// micro-measurements after it take well under a second.
func layerTimings(c *corpus, w workload, d deployment, ref *reference, budget time.Duration, m map[string]float64) {
	ctx := context.Background()
	queries := queriesOf(w)
	_, sharded := d.(*scatterWorkload)

	if !sharded {
		// The unsharded pipeline is not what a scatter leg runs, so its
		// numbers are left out there rather than reported under that name.
		var sys interface {
			SearchStatsContext(context.Context, core.Query, int) ([]core.Result, core.Stats)
		}
		switch dd := d.(type) {
		case *httpWorkload:
			sys = dd.d.sys
		case *inprocWorkload:
			sys = dd.sys
		}
		var facade, p1, pn []float64
		var hits, total float64
		deadline := time.Now().Add(budget)
		for i := 0; time.Now().Before(deadline); i++ {
			q := c.queries[queries[i%len(queries)]].q
			if sys != nil {
				assembled := func() { sink, _ = ref.engine.SearchCandidatesContext(ctx, q, ref.candidates(q), topK) }
				facaded := func() { sink, _ = sys.SearchStatsContext(ctx, q, topK) }
				// Whichever runs second finds the caches warm, so the order alternates.
				var ta, tf time.Duration
				if i%2 == 0 {
					ta, tf = timed(assembled), timed(facaded)
				} else {
					tf, ta = timed(facaded), timed(assembled)
				}
				facade = append(facade, float64(tf-ta)/float64(time.Microsecond))
			}
			cands := ref.candidates(q)
			p1 = append(p1, float64(timed(func() { sink, _ = ref.p1.SearchCandidatesContext(ctx, q, cands, topK) })))
			pn = append(pn, float64(timed(func() { sink, _ = ref.engine.SearchCandidatesContext(ctx, q, cands, topK) })))
			if ref.index != nil && i < len(queries) {
				// Share of the brute-force top-10 that the prefilter keeps.
				kept := map[lake.TableID]bool{}
				for _, id := range cands {
					kept[id] = true
				}
				brute, _ := ref.engine.SearchContext(ctx, q, topK)
				for _, r := range brute {
					total++
					if cands == nil || kept[r.Table] {
						hits++
					}
				}
			}
		}
		if sys != nil {
			m["thetis.facade_overhead_us_p50"] = percentileOf(facade, 50).Value
		}
		m["engine.p1_vs_pN_speedup"] = sum(p1) / sum(pn)
		if total > 0 {
			m["prefilter.recall_at_10"] = hits / total
		}

		const n = 50
		query := func(i int) core.Query { return c.queries[queries[i%len(queries)]].q }
		allocs := func(call func(i int)) (count, kb float64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				call(i)
			}
			runtime.ReadMemStats(&after)
			return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n
		}
		candidates := make([][]lake.TableID, n)
		if ref.index != nil {
			m["prefilter.allocs_per_query"], _ = allocs(func(i int) {
				candidates[i] = ref.candidates(query(i))
			})
			m["lsh.build_s"] = ref.buildS
			m["lsh.buckets"] = float64(ref.index.NumBuckets())
			m["lsh.items"] = float64(ref.index.NumItems())
		}
		m["engine.allocs_per_query"], m["engine.alloc_kb_per_query"] = allocs(func(i int) {
			sink, _ = ref.engine.SearchCandidatesContext(ctx, query(i), candidates[i], topK)
		})
	}

	m[sigmaMetric(w)] = sigmaNanos(c, ref.sim)
	m["hungarian.maximize_ns_3x6"] = hungarianNanos(c.seed)
	m["table.colindex_build_us_mean"] = colindexMicros(c)
	if live, ok := d.(*liveWorkload); ok {
		liveTimings(c, live, m)
	}
}

// liveTimings separates the mutation path's parts on twins: index
// mutation without a delta log, and the log append with its fsync alone.
func liveTimings(c *corpus, live *liveWorkload, m map[string]float64) {
	const n = 100
	twin := newTypeSystem(c, &setupParts{}, true)
	var adds []time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		id, err := twin.AddTableJSON(live.sched.fresh[i%len(live.sched.fresh)])
		adds = append(adds, time.Since(start))
		if err == nil {
			err = twin.RemoveTable(id)
		}
		if err != nil {
			return // the live pass reports failed mutations; nothing to time here
		}
	}
	m["live.add_nolog_us_p50"] = percentileOf(millis(adds), 50).Value * 1000
	if appends, err := deltaAppendSync(filepath.Dir(live.logPath), live.sched.fresh, n); err == nil {
		m["atomicio.delta_append_sync_ms_p50"] = percentileOf(millis(appends), 50).Value
	}
}
