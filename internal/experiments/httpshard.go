package experiments

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"time"

	"thetis"
	"thetis/internal/core"
	"thetis/internal/server"
)

// HTTPShardRow is one shard count of the shard-over-HTTP sweep.
type HTTPShardRow struct {
	Shards int
	// InProc and InProcP50 are per-query latencies through the in-process
	// n-shard System; Remote and RemoteP50 go through a coordinator-mode
	// System whose remote.Shard clients reach loopback HTTP daemons speaking
	// the sealed wire protocol.
	InProc    time.Duration
	InProcP50 time.Duration
	Remote    time.Duration
	RemoteP50 time.Duration
	// Overhead is the relative cost of crossing HTTP vs staying in-process
	// (mean remote / mean in-process - 1).
	Overhead float64
	// PerLeg is the absolute added wall time per query divided by the shard
	// count — the loopback cost of one scatter leg (serialize, seal, HTTP
	// round trip, verify, decode).
	PerLeg time.Duration
	// Identical reports whether every query's remote ranking — IDs and
	// scores — matched the in-process coordinator bit for bit.
	Identical bool
}

// HTTPShardResult measures the shard-over-HTTP seam (docs/SHARDING.md
// §"Shard-over-HTTP") against in-process scatter-gather on the same
// corpus and partitioning: both paths run the same Coordinator merge over
// the same per-shard engines, so the delta isolates the transport —
// URI serialization, the CRC32C envelope both ways, the HTTP round trip,
// and the client's deadline/retry bookkeeping — with no faults injected.
type HTTPShardResult struct {
	Queries int
	Rows    []HTTPShardRow
}

// buildHTTPShardedDeployment wires the remote twin of
// buildShardedDeployment the way thetisd -shard-urls does: one daemon
// System per hash-assigned slice behind internal/server on a loopback
// listener, and a coordinator System over the full corpus that scatters
// through remote clients (translating the daemons' dense local IDs back to
// global ones) after bootstrapping them with the global artifacts. close
// tears the daemons down.
func buildHTTPShardedDeployment(env *Env, n int, cfg core.LSEIConfig, votes int) (coord *thetis.System, close func()) {
	part := thetis.NewHashPartitioner(n)
	coord = thetis.New(env.KG.Graph)
	daemons := make([]*thetis.System, n)
	for i := range daemons {
		daemons[i] = thetis.New(env.KG.Graph)
	}
	for id := 0; id < env.Lake.NumTables(); id++ {
		t := env.Lake.Table(thetis.TableID(id))
		coord.AddTable(t)
		daemons[part.Assign(t)].AddTable(t)
	}
	coord.UseTypeSimilarity()
	globals := coord.ShardGlobalIDs(part)
	clients := make([]*thetis.RemoteShard, n)
	servers := make([]*httptest.Server, n)
	for i, d := range daemons {
		d.UseTypeSimilarity()
		servers[i] = httptest.NewServer(server.New(d))
		rs, err := thetis.NewRemoteShard(fmt.Sprintf("exp-http-%d-%d", n, i), env.KG.Graph,
			globals[i], []thetis.RemoteReplica{{URL: servers[i].URL}}, thetis.RemoteOptions{})
		if err != nil {
			panic(err) // unreachable: one replica is always given
		}
		clients[i] = rs
	}
	coord.UseRemoteShards(clients...)
	if err := coord.BootstrapShards(context.Background(), &cfg, votes); err != nil {
		panic(err) // loopback daemons just started; a failed push is a bug
	}
	return coord, func() {
		for _, s := range servers {
			s.Close()
		}
	}
}

// RunHTTPShard benchmarks the shard-over-HTTP transport against in-process
// scatter-gather with type-Jaccard σ and LSH (30,10) prefiltering,
// votes=3, top-10, over the combined 1- and 5-tuple query sets.
func RunHTTPShard(env *Env) HTTPShardResult {
	const (
		votes = 3
		topK  = 10
		reps  = 3
	)
	cfg := core.LSEIConfig{Vectors: 30, BandSize: 10, Seed: 1}
	queries := make([]core.Query, 0, len(env.Queries1)+len(env.Queries5))
	for _, bq := range env.Queries1 {
		queries = append(queries, bq.Query)
	}
	for _, bq := range env.Queries5 {
		queries = append(queries, bq.Query)
	}

	out := HTTPShardResult{Queries: len(queries)}
	maxShards := env.Config.Shards
	if maxShards < 1 {
		maxShards = 4
	}
	for _, n := range shardSweep(maxShards) {
		inproc := buildShardedDeployment(env, n, cfg, votes)
		httpCoord, closeDaemons := buildHTTPShardedDeployment(env, n, cfg, votes)
		inprocTimes, remoteTimes, inprocRanks, remoteRanks := pairedSweep(queries, reps, topK, inproc.Search, httpCoord.Search)
		closeDaemons()
		identical := true
		for i := range remoteRanks {
			if !sameRanking(remoteRanks[i], inprocRanks[i]) {
				identical = false
				break
			}
		}
		inMean, inP50 := meanP50(inprocTimes)
		rMean, rP50 := meanP50(remoteTimes)
		out.Rows = append(out.Rows, HTTPShardRow{
			Shards: n,
			InProc: inMean, InProcP50: inP50,
			Remote: rMean, RemoteP50: rP50,
			Overhead:  float64(rMean-inMean) / float64(inMean),
			PerLeg:    (rMean - inMean) / time.Duration(n),
			Identical: identical,
		})
	}
	return out
}

// Render prints the shard-over-HTTP sweep.
func (r HTTPShardResult) Render(w io.Writer) {
	renderHeader(w, "Shard-over-HTTP: loopback transport overhead vs in-process scatter-gather, LSH(30,10) votes=3 top-10")
	fmt.Fprintf(w, "per-query best of 3 interleaved passes over %d queries; PerLeg = added wall time / shard count\n\n", r.Queries)
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Shards\tIn-proc mean\tIn-proc P50\tHTTP mean\tHTTP P50\tOverhead\tPer leg\tIdentical ranking")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%d\t%v\t%v\t%v\t%v\t%+.1f%%\t%v\t%v\n",
			row.Shards,
			row.InProc.Round(time.Microsecond), row.InProcP50.Round(time.Microsecond),
			row.Remote.Round(time.Microsecond), row.RemoteP50.Round(time.Microsecond),
			100*row.Overhead, row.PerLeg.Round(time.Microsecond), row.Identical)
	}
	tw.Flush()
}
