package server

// Shard-over-HTTP differential battery (docs/SHARDING.md
// §"Shard-over-HTTP"): a System in coordinator mode scattering over
// thetis.RemoteShard clients to real HTTP daemons — each a full
// server.New(*thetis.System) stack, not a stub handler — must rank
// bit-for-bit like Algorithm 1 assembled straight from internal/core over
// the whole corpus (internal/reference), at 1, 2 and 4 shards. Clean, and
// under every fault class the transport can throw (connection refusal,
// 500s, truncated and bit-flipped bodies, mid-body stalls, slow-loris):
// faults the retry budget absorbs must leave rankings untouched; faults
// that exhaust it must compose into a correctly ranked Truncated prefix
// with the causes in Stats.ShardErrors — never an error, never a wrong
// order. `make race` runs this battery under -race.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thetis"
	"thetis/internal/bm25"
	"thetis/internal/core"
	"thetis/internal/datagen"
	"thetis/internal/faultio"
	"thetis/internal/obs"
	"thetis/internal/reference"
)

var (
	hsOnce    sync.Once
	hsKG      *datagen.KG
	hsTJ      *core.TypeJaccard
	hsTables  []*thetis.Table
	hsQueries []thetis.Query
)

// hsEnv generates the battery corpus once: a typed KG, a few hundred
// WT2015-profile tables in ingestion order, and mixed 1-/5-tuple queries
// (the same shape as the root package's reference battery).
func hsEnv(t *testing.T) (*datagen.KG, []*thetis.Table, []thetis.Query) {
	t.Helper()
	hsOnce.Do(func() {
		hsKG = datagen.GenerateKG(datagen.KGConfig{
			Domains: 5, LeafTypesPerDomain: 2, MembersPerLeafType: 40,
			GroupsPerDomain: 6, Places: 25, EdgesPerMember: 2, Seed: 17,
		})
		l := datagen.GenerateCorpus(hsKG, datagen.ProfileWT2015(300))
		for id := 0; id < l.NumTables(); id++ {
			hsTables = append(hsTables, l.Table(thetis.TableID(id)))
		}
		for _, bq := range datagen.GenerateQueries(hsKG, datagen.QueryConfig{
			Count: 4, TuplesPerQuery: 5, Width: 3, Seed: 17,
		}) {
			hsQueries = append(hsQueries, bq.Truncate(1).Query, bq.Query)
		}
		hsTJ = core.NewTypeJaccard(hsKG.Graph)
	})
	return hsKG, hsTables, hsQueries
}

// remoteDeployment is one fully wired shard-over-HTTP test fleet: the
// core-assembled reference, one daemon System per shard served by a real
// server.New over httptest, and the coordinator — a System over the full
// corpus whose scatter legs are the remote clients.
type remoteDeployment struct {
	ref     *reference.Reference
	coord   *thetis.System
	daemons []*thetis.System
	shards  []*thetis.RemoteShard

	// store, when set, is the embedding σ every System and the reference
	// score with instead of type Jaccard.
	store *thetis.EmbeddingStore

	// indexCfg and votes are what bootstrap ships to the daemons.
	indexCfg *thetis.IndexConfig
	votes    int
}

// buildRemoteDeployment assembles an n-shard fleet with type similarity.
// transport(shard, replica) supplies each replica's RoundTripper (nil =
// default); extra replicas per shard come from replicasPer > 1, every
// replica backed by the same daemon server (interchangeable by
// construction).
func buildRemoteDeployment(t *testing.T, label string, n, replicasPer int, opt thetis.RemoteOptions, transport func(shard, replica int) http.RoundTripper) *remoteDeployment {
	return buildRemoteDeploymentSim(t, label, n, replicasPer, opt, transport, nil)
}

// buildRemoteDeploymentSim is buildRemoteDeployment scoring with embedding
// cosine σ over store, or type Jaccard when store is nil.
func buildRemoteDeploymentSim(t *testing.T, label string, n, replicasPer int, opt thetis.RemoteOptions, transport func(shard, replica int) http.RoundTripper, store *thetis.EmbeddingStore) *remoteDeployment {
	t.Helper()
	kgEnv, tables, _ := hsEnv(t)
	part := thetis.NewHashPartitioner(n)
	useSim := func(sys *thetis.System) {
		if store == nil {
			sys.UseTypeSimilarity()
			return
		}
		sys.SetEmbeddings(store)
		sys.UseEmbeddingSimilarity()
	}

	coord := thetis.New(kgEnv.Graph)
	for i, tb := range tables {
		if coord.AddTable(tb) != thetis.TableID(i) {
			t.Fatalf("global ID assignment diverged at table %d", i)
		}
	}
	useSim(coord)

	// One daemon per shard, ingesting exactly its hash-assigned slice in
	// global ID order — the same replay ShardGlobalIDs performs.
	globals := coord.ShardGlobalIDs(part)
	var sim core.Similarity = hsTJ
	if store != nil {
		sim = core.NewEmbeddingCosine(kgEnv.Graph, store)
	}
	d := &remoteDeployment{ref: reference.New(kgEnv.Graph, tables, sim), coord: coord, store: store, votes: 1}
	for si := 0; si < n; si++ {
		daemon := thetis.New(kgEnv.Graph)
		for _, gid := range globals[si] {
			daemon.AddTable(coord.Table(gid))
		}
		useSim(daemon)
		srv := httptest.NewServer(New(daemon))
		t.Cleanup(srv.Close)
		replicas := make([]thetis.RemoteReplica, replicasPer)
		for ri := 0; ri < replicasPer; ri++ {
			replicas[ri] = thetis.RemoteReplica{URL: srv.URL}
			if transport != nil {
				if rt := transport(si, ri); rt != nil {
					replicas[ri].Client = &http.Client{Transport: rt}
				}
			}
		}
		sh, err := thetis.NewRemoteShard(label+"-"+string(rune('0'+si)), kgEnv.Graph, globals[si], replicas, opt)
		if err != nil {
			t.Fatal(err)
		}
		d.daemons = append(d.daemons, daemon)
		d.shards = append(d.shards, sh)
	}
	coord.UseRemoteShards(d.shards...)
	return d
}

// index builds the LSEI everywhere: the reference builds directly; the
// remote daemons build from the index spec the next bootstrap ships, under
// the shipped global frequent-type filter (type σ).
func (d *remoteDeployment) index(cfg thetis.IndexConfig) {
	if d.store == nil {
		d.ref.Index = core.BuildTypeLSEI(d.ref.Lake, hsTJ, cfg)
	} else {
		d.ref.Index = core.BuildEmbeddingLSEI(d.ref.Lake, d.ref.Engine.Sim.(*core.EmbeddingCosine), d.store.Dim(), cfg)
	}
	d.indexCfg = &cfg
}

// setVotes fixes the vote threshold everywhere (remote: on next bootstrap).
func (d *remoteDeployment) setVotes(votes int) {
	d.ref.Votes = votes
	d.votes = votes
}

// bootstrap ships the global artifacts; rankings are only comparable
// afterwards (un-bootstrapped daemons weigh entities by slice-local IDF).
func (d *remoteDeployment) bootstrap(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.coord.BootstrapShards(ctx, d.indexCfg, d.votes); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
}

// assertRemoteIdentical checks remote == reference, bit for bit, for every
// query.
func assertRemoteIdentical(t *testing.T, label string, d *remoteDeployment, queries []thetis.Query, k int) {
	t.Helper()
	ctx := context.Background()
	for qi, q := range queries {
		want, wantStats := d.ref.Search(q, k)
		got, gotStats := d.coord.SearchStatsContext(ctx, q, k)
		if wantStats.Truncated {
			t.Fatalf("%s q%d: reference truncated", label, qi)
		}
		if gotStats.Truncated {
			t.Fatalf("%s q%d: remote truncated: %v", label, qi, gotStats.ShardErrors)
		}
		if len(got) != len(want) {
			t.Fatalf("%s q%d: remote %d / reference %d results", label, qi, len(got), len(want))
		}
		for i := range want {
			if got[i].Table != want[i].Table || got[i].Score != want[i].Score {
				t.Fatalf("%s q%d rank %d: remote %+v, reference %+v", label, qi, i, got[i], want[i])
			}
		}
	}
}

func TestHTTPShardCleanBitIdentity(t *testing.T) {
	_, _, queries := hsEnv(t)
	for _, n := range []int{1, 2, 4} {
		d := buildRemoteDeployment(t, "clean"+string(rune('0'+n)), n, 1, thetis.RemoteOptions{}, nil)
		d.bootstrap(t)
		label := "full-scan/" + string(rune('0'+n))
		assertRemoteIdentical(t, label, d, queries, 10)
		assertRemoteIdentical(t, label+"/all", d, queries[:2], -1)
	}
}

func TestHTTPShardLSHBitIdentity(t *testing.T) {
	_, _, queries := hsEnv(t)
	cfg := thetis.DefaultIndexConfig()
	d := buildRemoteDeployment(t, "lsh", 3, 1, thetis.RemoteOptions{}, nil)
	d.index(cfg)
	for _, votes := range []int{1, 2, 3} {
		d.setVotes(votes)
		d.bootstrap(t) // re-ship: votes travel with the artifacts
		assertRemoteIdentical(t, "lsh", d, queries, 10)
	}

	// A coordinator's trace stays scatter-gather shaped: every leg's
	// scatter stage and its own stages labelled with its shard, then the
	// merge.
	_, stats := d.coord.SearchStats(queries[0], 10)
	if got, want := stats.Trace.String(), "s0:scatter .* s0:remote .* s1:scatter .* s1:remote .* s2:scatter .* s2:remote .* merge "; !regexp.MustCompile(want).MatchString(got) {
		t.Fatalf("coordinator trace %q, want stages matching %q", got, want)
	}
}

// TestHTTPShardCompactionKeepsBitIdentity: a shard daemon is a plain
// thetisd, so it compacts its LSEI like any other (-compact-every). The
// rebuild must keep the frequent-type filter the coordinator shipped — a
// filter recomputed from the daemon's own slice drops different types,
// changes signatures, and so changes which tables the prefilter admits.
func TestHTTPShardCompactionKeepsBitIdentity(t *testing.T) {
	_, _, queries := hsEnv(t)
	for _, n := range []int{2, 3, 4} {
		d := buildRemoteDeployment(t, "compact"+string(rune('0'+n)), n, 1, thetis.RemoteOptions{}, nil)
		d.index(thetis.DefaultIndexConfig())
		for _, votes := range []int{1, 2, 3} {
			d.setVotes(votes)
			d.bootstrap(t)
			for _, daemon := range d.daemons {
				daemon.Compact()
			}
			assertRemoteIdentical(t, fmt.Sprintf("compact/%d/votes%d", n, votes), d, queries, -1)
		}
	}
}

// TestHTTPShardEmbeddingBitIdentity: with embedding σ the bootstrap ships
// no frequent-type filter, and each daemon builds a hyperplane LSEI over its
// own slice; brute force and prefiltered, the merged ranking matches the
// reference over the whole corpus.
func TestHTTPShardEmbeddingBitIdentity(t *testing.T) {
	kgEnv, _, queries := hsEnv(t)
	store := thetis.New(kgEnv.Graph).TrainEmbeddings(
		thetis.WalkConfig{WalksPerEntity: 4, Length: 5, Undirected: true, Seed: 9},
		thetis.TrainConfig{Dim: 16, Window: 3, Negatives: 3, Epochs: 2, LearningRate: 0.03, Seed: 9},
	)
	for _, n := range []int{2, 4} {
		d := buildRemoteDeploymentSim(t, "emb"+string(rune('0'+n)), n, 1, thetis.RemoteOptions{}, nil, store)
		d.bootstrap(t)
		assertRemoteIdentical(t, fmt.Sprintf("embeddings/%d", n), d, queries, 10)

		d.index(thetis.DefaultIndexConfig())
		d.setVotes(2)
		d.bootstrap(t)
		for i, daemon := range d.daemons {
			if !daemon.HasIndex() {
				t.Fatalf("embeddings/%d: daemon %d built no LSEI from the shipped spec", n, i)
			}
		}
		assertRemoteIdentical(t, fmt.Sprintf("embeddings-lsh/%d", n), d, queries, 10)
	}
}

func TestHTTPShardRescatterForceFullScan(t *testing.T) {
	_, _, queries := hsEnv(t)
	cfg := thetis.DefaultIndexConfig()
	d := buildRemoteDeployment(t, "rescatter", 2, 1, thetis.RemoteOptions{}, nil)
	d.index(cfg)
	// An unsatisfiable vote threshold empties every shard's prefilter, so
	// the coordinator's rescatter round must carry ForceFullScan over the
	// wire — and the final ranking must match the reference's own fallback
	// full scan.
	d.setVotes(99)
	d.bootstrap(t)
	got, stats := d.coord.SearchStatsContext(context.Background(), queries[1], 10)
	if len(got) == 0 {
		t.Fatalf("rescatter produced no results (stats %+v)", stats)
	}
	assertRemoteIdentical(t, "rescatter", d, queries, 10)
}

// faultScripts enumerates every fault class with a script the retry
// budget (3 attempts) absorbs: two faulted attempts, then clean.
func faultScripts() map[string][]faultio.Fault {
	return map[string][]faultio.Fault{
		"refuse":    {faultio.Refuse, faultio.Refuse},
		"http500":   {faultio.Status500, faultio.Status500},
		"truncate":  {faultio.TruncateBody, faultio.TruncateBody},
		"bitflip":   {faultio.FlipBody, faultio.FlipBody},
		"stall":     {faultio.StallBody, faultio.StallBody},
		"slowloris": {faultio.SlowLoris, faultio.SlowLoris},
		"mixed":     {faultio.Refuse, faultio.FlipBody},
	}
}

func TestHTTPShardFaultMatrixRetriesToBitIdentity(t *testing.T) {
	_, _, queries := hsEnv(t)
	for name, script := range faultScripts() {
		t.Run(name, func(t *testing.T) {
			label := "fm-" + name
			var transports []*faultio.FaultTransport
			opt := thetis.RemoteOptions{
				MaxAttempts:    3,
				AttemptTimeout: 250 * time.Millisecond, // stalls must burn an attempt, not the test
				BackoffBase:    time.Millisecond,
				BackoffMax:     4 * time.Millisecond,
				// Never trip during the scripted faults: this test is about
				// the retry path, the breaker has its own.
				BreakerThreshold: 1000,
			}
			d := buildRemoteDeployment(t, label, 2, 1, opt, func(shard, replica int) http.RoundTripper {
				if shard != 0 {
					return nil // only shard 0 misbehaves
				}
				ft := faultio.NewFaultTransport(nil)
				ft.Delay = 2 * time.Second
				transports = append(transports, ft)
				return ft
			})
			d.bootstrap(t) // clean transport so the artifact push lands
			if len(transports) != 1 {
				t.Fatalf("want 1 fault transport, got %d", len(transports))
			}
			// Arm the script now: the next search's first attempts hit the
			// faults, the final attempt goes clean.
			transports[0].Script = script
			retriesBefore := obs.RemoteShardRetriesTotal(label + "-0").Value()
			got, stats := d.coord.SearchStatsContext(context.Background(), queries[0], 10)
			if stats.Truncated {
				t.Fatalf("retry budget did not absorb %s: %v", name, stats.ShardErrors)
			}
			want, _ := d.ref.Search(queries[0], 10)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s rank %d: remote %+v, reference %+v", name, i, got[i], want[i])
				}
			}
			if obs.RemoteShardRetriesTotal(label+"-0").Value() == retriesBefore {
				t.Fatalf("%s: faults injected but no retry recorded", name)
			}
			if transports[0].Injected() == 0 {
				t.Fatalf("%s: fault transport never injected", name)
			}
			assertRemoteIdentical(t, name, d, queries, 10)
		})
	}
}

func TestHTTPShardDeadShardDegradesToRankedPrefix(t *testing.T) {
	_, _, queries := hsEnv(t)
	opt := thetis.RemoteOptions{
		MaxAttempts:    2,
		AttemptTimeout: 250 * time.Millisecond,
		BackoffBase:    time.Millisecond,
		BackoffMax:     2 * time.Millisecond,
	}
	d := buildRemoteDeployment(t, "dead", 3, 1, opt, func(shard, replica int) http.RoundTripper {
		if shard != 1 {
			return nil
		}
		ft := faultio.NewFaultTransport(nil, faultio.Refuse)
		ft.Loop = true // shard 1 is permanently unreachable
		return ft
	})
	// Bootstrap cannot reach shard 1 either: the push must fail loudly.
	if err := d.coord.BootstrapShards(context.Background(), nil, 1); err == nil {
		t.Fatal("bootstrap succeeded with an unreachable shard")
	}
	// Re-push to the live shards only so their artifacts are in place.
	a := d.coord.ComputeShardArtifacts(nil, 1)
	for _, si := range []int{0, 2} {
		if err := d.shards[si].PushArtifacts(context.Background(), a); err != nil {
			t.Fatal(err)
		}
	}
	deadTables := map[thetis.TableID]bool{}
	for _, gid := range d.coord.ShardGlobalIDs(thetis.NewHashPartitioner(3))[1] {
		deadTables[gid] = true
	}
	for qi, q := range queries {
		got, stats := d.coord.SearchStatsContext(context.Background(), q, 10)
		if !stats.Truncated {
			t.Fatalf("q%d: dead shard not surfaced as Truncated", qi)
		}
		found := false
		for _, e := range stats.ShardErrors {
			if strings.HasPrefix(e, "shard 1:") {
				found = true
			}
		}
		if !found {
			t.Fatalf("q%d: ShardErrors missing the dead shard: %v", qi, stats.ShardErrors)
		}
		// The prefix must be exactly the reference ranking with the dead
		// shard's tables removed — correctly ranked, nothing invented.
		full, _ := d.ref.Search(q, -1)
		var want []thetis.Result
		for _, r := range full {
			if !deadTables[r.Table] {
				want = append(want, r)
			}
		}
		if len(want) > 10 {
			want = want[:10]
		}
		if len(got) != len(want) {
			t.Fatalf("q%d: degraded prefix has %d results, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("q%d rank %d: degraded %+v, want %+v", qi, i, got[i], want[i])
			}
		}
	}
	// A batch never answers a repeat from a truncated first occurrence, even
	// under a live context: the repeat scatters again (its trace has legs).
	_, stats := d.coord.SearchBatchContext(context.Background(), []thetis.Query{queries[0], queries[0]}, 10)
	for i, st := range stats {
		if !st.Truncated || len(st.ShardErrors) == 0 || len(st.Trace.Stages) == 0 {
			t.Fatalf("batch q%d over a dead shard: truncated=%v errors=%v stages=%d, want a degraded search of its own",
				i, st.Truncated, st.ShardErrors, len(st.Trace.Stages))
		}
	}
}

func TestHTTPShardAllShardsDeadExplicitEmpty(t *testing.T) {
	_, _, queries := hsEnv(t)
	opt := thetis.RemoteOptions{
		MaxAttempts:    2,
		AttemptTimeout: 100 * time.Millisecond,
		BackoffBase:    time.Millisecond,
		BackoffMax:     2 * time.Millisecond,
	}
	d := buildRemoteDeployment(t, "alldead", 2, 1, opt, func(shard, replica int) http.RoundTripper {
		ft := faultio.NewFaultTransport(nil, faultio.Refuse)
		ft.Loop = true
		return ft
	})
	got, stats := d.coord.SearchStatsContext(context.Background(), queries[0], 10)
	if len(got) != 0 {
		t.Fatalf("all-dead fleet returned results: %v", got)
	}
	if !stats.Truncated {
		t.Fatal("all-dead fleet must mark Truncated")
	}
	saw := map[string]bool{}
	for _, e := range stats.ShardErrors {
		if strings.HasPrefix(e, "shard 0:") {
			saw["0"] = true
		}
		if strings.HasPrefix(e, "shard 1:") {
			saw["1"] = true
		}
	}
	if !saw["0"] || !saw["1"] {
		t.Fatalf("per-shard causes incomplete: %v", stats.ShardErrors)
	}
}

func TestHTTPShardReplicaFailoverKeepsIdentity(t *testing.T) {
	_, _, queries := hsEnv(t)
	opt := thetis.RemoteOptions{
		MaxAttempts:      3,
		AttemptTimeout:   250 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute, // stays tripped for the whole test
	}
	label := "failover"
	var broken *faultio.FaultTransport
	d := buildRemoteDeployment(t, label, 2, 2, opt, func(shard, replica int) http.RoundTripper {
		if shard == 0 && replica == 0 {
			broken = faultio.NewFaultTransport(nil)
			return broken
		}
		return nil
	})
	d.bootstrap(t) // artifacts land while every replica is still healthy
	// Now replica 0 of shard 0 breaks permanently.
	broken.Script = []faultio.Fault{faultio.Status500}
	broken.Loop = true
	before := obs.RemoteShardBreakerOpenTotal(label + "-0").Value()
	// Every search must come back clean and bit-identical: attempts that
	// land on the broken replica fail over to the healthy one, and after
	// BreakerThreshold failures the breaker parks the broken replica so
	// later searches stop paying for it.
	assertRemoteIdentical(t, "failover", d, queries, 10)
	assertRemoteIdentical(t, "failover-again", d, queries, 10)
	if obs.RemoteShardBreakerOpenTotal(label+"-0").Value() == before {
		t.Fatal("broken replica's breaker never tripped")
	}
	st := d.shards[0].Status()
	open := 0
	for _, r := range st.Replicas {
		if r.Breaker == "open" {
			open++
		}
	}
	if open != 1 {
		t.Fatalf("want exactly the broken replica parked, got %+v", st)
	}
}

// TestHTTPShardProbesRestoreIdleReadiness is why background probes stay:
// a coordinator that receives no searches can only close a healed
// replica's breaker through a probe, and until it does /readyz?full=1
// answers 503 to an orchestrator waiting for full capacity.
func TestHTTPShardProbesRestoreIdleReadiness(t *testing.T) {
	_, _, queries := hsEnv(t)
	opt := thetis.RemoteOptions{
		MaxAttempts:      1,
		AttemptTimeout:   250 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  10 * time.Millisecond,
	}
	label := "idleprobe"
	ft := &faultio.FaultTransport{Script: []faultio.Fault{faultio.Status500}, Loop: true}
	var searches atomic.Int32 // /shard/search requests that reach the replica
	d := buildRemoteDeployment(t, label, 1, 1, opt, func(shard, replica int) http.RoundTripper {
		return roundTripFunc(func(r *http.Request) (*http.Response, error) {
			if r.URL.Path == "/shard/search" {
				searches.Add(1)
			}
			return ft.RoundTrip(r)
		})
	})
	coord := httptest.NewServer(New(d.coord, WithRemoteShardStatus(d.coord.ShardStatuses)))
	t.Cleanup(coord.Close)
	readyFull := func() int {
		resp, err := http.Get(coord.URL + "/readyz?full=1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// One search against the failing replica trips its breaker.
	if _, stats := d.coord.SearchStatsContext(context.Background(), queries[0], 10); !stats.Truncated {
		t.Fatal("search over a failing replica did not truncate")
	}
	if code := readyFull(); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz?full=1 = %d with the only breaker open, want 503", code)
	}

	// The replica heals; only the probes run, no search is sent.
	ft.Script = nil
	healed := searches.Load()
	stop := d.coord.StartProbes(5 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for readyFull() != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatalf("/readyz?full=1 still not 200 after 2s of probes: %+v", d.shards[0].Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	url := d.shards[0].Status().Replicas[0].URL
	if up := obs.RemoteShardReplicaUp(label+"-0", url).Value(); up != 1 {
		t.Fatalf("thetis_remote_shard_replica_up = %v after the probe closed the breaker, want 1", up)
	}
	if n := searches.Load() - healed; n != 0 {
		t.Fatalf("%d /shard/search requests reached the replica after the heal, want 0", n)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestHTTPShardHybridAndReadOnly(t *testing.T) {
	_, _, queries := hsEnv(t)
	d := buildRemoteDeployment(t, "hybrid", 2, 1, thetis.RemoteOptions{}, nil)
	d.bootstrap(t)
	d.ref.Keyword = bm25.IndexLake(d.ref.Lake)
	d.coord.BuildKeywordIndex()
	// The hybrid merge must match the reference's: the semantic half is
	// bit-identical (proved above), the BM25 half is the coordinator's
	// local full-corpus index, so the complement merge must agree.
	kw := "member domain city"
	for qi, q := range queries[:4] {
		want := d.ref.HybridSearch(q, kw, 10)
		got := d.coord.HybridSearchContext(context.Background(), q, kw, 10)
		if len(got) != len(want) {
			t.Fatalf("q%d: hybrid %d results, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("q%d rank %d: hybrid %v, want %v", qi, i, got[i], want[i])
			}
		}
	}
	// The deployment is read-only: mutations answer ErrReadOnly.
	if _, err := d.coord.AddTableJSON([]byte(`{}`)); err != thetis.ErrReadOnly {
		t.Fatalf("AddTableJSON = %v, want ErrReadOnly", err)
	}
	if err := d.coord.RemoveTable(0); err != thetis.ErrReadOnly {
		t.Fatalf("RemoveTable = %v, want ErrReadOnly", err)
	}
}

// TestHTTPShardCoordinatorServesOverHTTP closes the loop: the coordinator
// System itself behind server.New — the full coordinator-daemon stack —
// answers /search, is read-only over HTTP (405), and reports the
// remote-replica breakdown on /readyz.
func TestHTTPShardCoordinatorServesOverHTTP(t *testing.T) {
	_, _, _ = hsEnv(t)
	d := buildRemoteDeployment(t, "coord", 2, 1, thetis.RemoteOptions{}, nil)
	d.bootstrap(t)
	d.coord.BuildKeywordIndex()
	coord := httptest.NewServer(New(d.coord, WithRemoteShardStatus(d.coord.ShardStatuses)))
	t.Cleanup(coord.Close)

	resp, err := http.Get(coord.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d", resp.StatusCode)
	}

	resp, err = http.Post(coord.URL+"/tables", "application/json", strings.NewReader(`{"name":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /tables on coordinator = %d, want 405", resp.StatusCode)
	}

	// A textual query through the whole stack: parse on the coordinator,
	// scatter over HTTP, merge, serve.
	resp, err = http.Post(coord.URL+"/search", "application/json",
		strings.NewReader(`{"query": "`+hsKG.Graph.Label(hsKG.Domains[0].Members[0][0])+`", "k": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /search on coordinator = %d", resp.StatusCode)
	}
}
