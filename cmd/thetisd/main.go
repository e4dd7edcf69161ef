// Command thetisd serves a semantic data lake over HTTP (see
// internal/server for the API).
//
//	thetisd -kg bench/kg.nt -corpus bench/corpus.jsonl -addr :8080 \
//	        [-sim types|embeddings] [-embfile embeddings.bin] \
//	        [-shard-urls http://a:8081|http://a2:8081,http://b:8082] [-probe-every 3s] \
//	        [-lsh] [-votes 3] [-vectors 30] [-band 10] \
//	        [-lenient-ingest] [-ingest-budget N] [-max-line BYTES] \
//	        [-delta-log deltas.log] [-compact-every 10m] \
//	        [-timeout 10s] [-max-inflight 64] [-drain 30s] [-pprof]
//
// Shard-over-HTTP (docs/SHARDING.md): a daemon holds one lake, and
// -shard-urls turns it into a scatter-gather coordinator over remote shard
// daemons (plain thetisd instances each serving its hash-assigned slice of
// the corpus). The coordinator loads the full corpus locally for query
// parsing, keyword search, and the global-artifact bootstrap it ships to
// every shard, but answers /search by scattering over HTTP with retries,
// replica failover, and per-replica circuit breakers
// (thetis_remote_shard_* metrics; per-replica breakdown on /readyz). The
// deployment is read-only: POST/DELETE /tables answer 405.
//
// Batch search (docs/THROUGHPUT.md): POST /search/batch answers N queries
// in one round trip under one corpus snapshot, bit-identical to N
// sequential /search calls.
//
// Request lifecycle: every search-type request runs under -timeout (an
// expiring search returns its partial ranking marked "truncated"), at most
// -max-inflight searches execute concurrently (excess load is shed with
// 429 + Retry-After), and SIGINT/SIGTERM trigger a graceful shutdown that
// drains in-flight queries for up to -drain before exiting.
//
// Fault tolerance (docs/RELIABILITY.md): -lenient-ingest skips malformed
// KG lines and corpus tables — quarantining up to -ingest-budget of them,
// inspectable on GET /debug/ingest — instead of refusing to start. With
// -lsh the daemon serves immediately, brute-force, while the LSEI builds
// in the background. GET /readyz reports the index lifecycle.
//
// Live mutation (docs/LIVE_INDEX.md): POST /tables and DELETE /tables/{id}
// fold additions and removals into every live index without a restart.
// -delta-log write-ahead-logs each mutation to a checksummed append-only
// file and replays it over the base corpus on the next start — a corrupt
// log refuses to start rather than serve a wrong index, and a log that
// stops logging mid-run turns /readyz degraded and sets
// thetis_delta_log_failed. -compact-every periodically rebuilds the LSEI
// aside to shed tombstones; searches keep flowing through each compaction.
//
// Operational endpoints (docs/OBSERVABILITY.md): GET /metrics exposes
// Prometheus-format counters and latency histograms, GET /debug/trace
// returns a per-stage breakdown of one search, and -pprof additionally
// mounts net/http/pprof under /debug/pprof/.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"thetis"
	"thetis/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("thetisd: ")

	kgPath := flag.String("kg", "bench/kg.nt", "knowledge graph triples file")
	corpusPath := flag.String("corpus", "bench/corpus.jsonl", "corpus JSONL file")
	addr := flag.String("addr", ":8080", "listen address")
	sim := flag.String("sim", "types", "similarity: types | embeddings")
	embFile := flag.String("embfile", "", "embeddings file (for -sim embeddings)")
	shardURLs := flag.String("shard-urls", "", "serve as a scatter-gather coordinator over remote shard daemons: shards comma-separated, replicas of one shard |-separated, each shard holding its hash-assigned slice")
	probeEvery := flag.Duration("probe-every", 3*time.Second, "remote-replica health probe interval for -shard-urls (0 disables probing)")
	useLSH := flag.Bool("lsh", true, "enable LSH prefiltering")
	votes := flag.Int("votes", 3, "LSH vote threshold")
	vectors := flag.Int("vectors", 30, "LSH permutations/projections")
	band := flag.Int("band", 10, "LSH band size")
	lenient := flag.Bool("lenient-ingest", false, "skip malformed KG lines and corpus tables instead of aborting (see /debug/ingest)")
	budget := flag.Int("ingest-budget", 1000, "max records lenient ingestion may quarantine before giving up (-1 = unlimited)")
	maxLine := flag.Int("max-line", 0, "max bytes per KG/corpus line (0 = 16 MiB default)")
	deltaLog := flag.String("delta-log", "", "write-ahead mutation log, replayed over the base corpus on restart")
	compactEvery := flag.Duration("compact-every", 0, "rebuild live indexes this often to shed removal tombstones (0 disables)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request search deadline; expiring searches return partial results (0 disables)")
	maxInflight := flag.Int("max-inflight", 8*runtime.GOMAXPROCS(0), "max concurrent search requests before shedding with 429 (0 disables)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for draining in-flight requests (0 waits forever)")
	withPprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	// Validate the whole flag combination up front (see flags.go for the
	// incompatibility matrix): a bad -vectors/-band pair or an unsupported
	// flag mix is a usage error, not a mid-flight panic.
	cfg := thetis.DefaultIndexConfig()
	cfg.Vectors = *vectors
	cfg.BandSize = *band
	if err := validateFlags(flagConfig{
		Sim:       *sim,
		ShardURLs: *shardURLs,
		Votes:     *votes,
		Index:     cfg,
		DeltaLog:  *deltaLog,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "thetisd: invalid flags: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	report := thetis.NewIngestReport()
	sys := load(*kgPath, *corpusPath, thetis.IngestOptions{
		Lenient:      *lenient,
		MaxLineBytes: *maxLine,
		ErrorBudget:  *budget,
		Report:       report,
	})
	if *lenient {
		tOK, tSkip := report.Triples.Counts()
		cOK, cSkip := report.Tables.Counts()
		if tSkip+cSkip > 0 {
			log.Printf("lenient ingest: quarantined %d/%d triples and %d/%d tables (details on /debug/ingest)",
				tSkip, tOK+tSkip, cSkip, cOK+cSkip)
		}
	}
	if *deltaLog != "" {
		base := sys.NumTables()
		if err := sys.AttachDeltaLog(*deltaLog); err != nil {
			log.Fatalf("delta log %s: %v (restore the base corpus and a clean log)", *deltaLog, err)
		}
		if n := sys.NumTables(); n != base {
			log.Printf("delta log %s: replayed mutations, %d -> %d live tables", *deltaLog, base, n)
		}
	}
	switch *sim {
	case "types":
		sys.UseTypeSimilarity()
	case "embeddings":
		if *embFile != "" {
			f, err := os.Open(*embFile)
			if err != nil {
				log.Fatal(err)
			}
			err = sys.LoadEmbeddings(bufio.NewReader(f))
			f.Close()
			if err != nil {
				log.Fatalf("loading embeddings %s: %v", *embFile, err)
			}
		} else {
			log.Println("training embeddings…")
			sys.TrainEmbeddings(thetis.DefaultWalkConfig(), thetis.DefaultTrainConfig())
		}
		sys.UseEmbeddingSimilarity()
	}
	log.Println("building keyword index…")
	sys.BuildKeywordIndex()

	opts := []server.Option{
		server.WithSearchTimeout(*timeout),
		server.WithMaxInFlight(*maxInflight),
		server.WithIngestReport(report),
	}
	stopProbes := func() {}
	if *shardURLs != "" {
		// Coordinator mode (docs/SHARDING.md §"Shard-over-HTTP"): the full
		// corpus just loaded stays local for parsing/keyword/stats, semantic
		// search scatters to the remote daemons. No local LSEI — the shards
		// build theirs from the bootstrapped index spec.
		groups, err := parseShardURLs(*shardURLs)
		if err != nil {
			log.Fatal(err) // unreachable: validateFlags already parsed it
		}
		var shardCfg *thetis.IndexConfig
		if *useLSH {
			shardCfg = &cfg
		}
		stopProbes = startCoordinator(sys, groups, shardCfg, *votes, *probeEvery)
		opts = append(opts, server.WithRemoteShardStatus(sys.ShardStatuses))
	} else if *useLSH {
		// Serve immediately — brute force while the index builds in the
		// background, then hot-swap; /readyz reports the lifecycle.
		rd := server.NewReadiness(nil)
		opts = append(opts, server.WithReadiness(rd))
		go logActivation(rd, server.ActivateIndex(sys, rd, cfg, *votes))
	}
	if *withPprof {
		opts = append(opts, server.WithPprof())
		log.Println("pprof enabled on /debug/pprof/")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *compactEvery > 0 && *shardURLs == "" {
		go func() {
			tick := time.NewTicker(*compactEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					sys.Compact()
				}
			}
		}()
	}
	role := "serving"
	if *shardURLs != "" {
		role = "coordinating"
	}
	log.Printf("%s %d tables on %s (metrics on /metrics, timeout %v, max in-flight %d)",
		role, sys.NumTables(), *addr, *timeout, *maxInflight)
	err := server.Run(ctx, *addr, server.New(sys, opts...), *drain)
	stopProbes()
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.DeltaLogError(); err != nil {
		log.Printf("delta log %s: stopped logging after error: %v (mutations since are not durable)", *deltaLog, err)
	}
	sys.CloseDeltaLog()
	log.Println("drained in-flight queries, shut down cleanly")
}

// startCoordinator puts sys into coordinator mode (thetisd -shard-urls):
// one RemoteShard client per replica group, global table IDs assigned by
// replaying the hash partitioner over the local corpus, then a blocking
// bootstrap that ships the global artifacts (IDF informativeness,
// frequent-type filter, index spec, votes) to every replica. Bootstrap
// failure is fatal — serving un-bootstrapped shards would return rankings
// that differ from one system over the whole corpus. It returns the
// probes' stop function.
func startCoordinator(sys *thetis.System, groups [][]string, cfg *thetis.IndexConfig, votes int, probeEvery time.Duration) (stopProbes func()) {
	globals := sys.ShardGlobalIDs(thetis.NewHashPartitioner(len(groups)))
	shards := make([]*thetis.RemoteShard, len(groups))
	for i, urls := range groups {
		replicas := make([]thetis.RemoteReplica, len(urls))
		for j, u := range urls {
			replicas[j] = thetis.RemoteReplica{URL: u}
		}
		sh, err := thetis.NewRemoteShard(fmt.Sprintf("%d", i), sys.Graph(), globals[i], replicas, thetis.RemoteOptions{})
		if err != nil {
			log.Fatalf("shard %d: %v", i, err)
		}
		shards[i] = sh
	}
	sys.UseRemoteShards(shards...)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	log.Printf("bootstrapping %d remote shards (global artifacts + index spec)…", len(shards))
	if err := sys.BootstrapShards(ctx, cfg, votes); err != nil {
		log.Fatalf("bootstrap: %v (start the shard daemons, then restart the coordinator)", err)
	}
	if probeEvery <= 0 {
		return func() {}
	}
	return sys.StartProbes(probeEvery)
}

// logActivation reports the index lifecycle outcome without blocking
// startup.
func logActivation(rd *server.Readiness, done <-chan error) {
	if err := <-done; err != nil {
		log.Printf("index activation failed: %v (serving brute force)", err)
		return
	}
	_, detail, _ := rd.Snapshot()
	log.Printf("index ready (%s)", detail)
}

// load builds the graph and ingests the corpus into a System.
func load(kgPath, corpusPath string, opts thetis.IngestOptions) *thetis.System {
	g := thetis.NewGraph()
	kf, err := os.Open(kgPath)
	if err != nil {
		log.Fatal(err)
	}
	var tq *thetis.Quarantine
	if opts.Report != nil {
		tq = opts.Report.Triples
	}
	err = thetis.LoadTriplesOpts(g, bufio.NewReader(kf), thetis.LoadOptions{
		Lenient:      opts.Lenient,
		MaxLineBytes: opts.MaxLineBytes,
		ErrorBudget:  opts.ErrorBudget,
		Source:       kgPath,
		Quarantine:   tq,
	})
	kf.Close()
	if err != nil {
		log.Fatalf("loading KG %s: %v", kgPath, err)
	}

	sys := thetis.New(g)
	cf, err := os.Open(corpusPath)
	if err != nil {
		log.Fatal(err)
	}
	defer cf.Close()
	opts.Source = corpusPath
	if _, err := sys.IngestCorpus(bufio.NewReaderSize(cf, 1<<20), opts); err != nil {
		log.Fatalf("corpus %s: %v", corpusPath, err)
	}
	return sys
}
