package thetis

// Shard-over-HTTP (docs/SHARDING.md §"Shard-over-HTTP"): the pieces that
// turn the scatter-gather seam into a distributed deployment.
//
// Topology: N shard daemons each run an ordinary thetisd over their slice
// of the corpus; one coordinator daemon (thetisd -shard-urls) loads the
// FULL corpus locally — for query parsing, BM25 keyword search, table
// lookups, and artifact computation — but scatters every semantic search to
// the shard daemons through remote.Shard clients (one per shard, N replicas
// each) and merges them with a Coordinator.
//
// This file is the root-package glue: the daemon-side handlers a System
// needs to serve as a remote shard (ServeShardSearch,
// ApplyShardArtifacts), the coordinator-side artifact computation and
// global ID mapping, and coordinator mode itself — the same System
// scattering over remote clients (UseRemoteShards).

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"thetis/internal/core"
	"thetis/internal/kg"
	"thetis/internal/remote"
)

// Remote shard-over-HTTP seams, re-exported from internal/remote.
type (
	// RemoteShard is the HTTP shard client: a Shard whose SearchShard
	// proxies to a remote unsharded thetisd with retries, replica
	// failover, and circuit breaking.
	RemoteShard = remote.Shard
	// RemoteReplica is one interchangeable daemon serving a shard.
	RemoteReplica = remote.Replica
	// RemoteOptions tunes the remote client's robustness layer.
	RemoteOptions = remote.Options
	// RemoteStatus is one shard's per-replica breaker breakdown.
	RemoteStatus = remote.Status
	// ShardArtifacts is the global-artifact bootstrap payload
	// (POST /shard/artifacts).
	ShardArtifacts = remote.Artifacts
)

// NewRemoteShard builds the HTTP client for one shard; see remote.NewShard.
func NewRemoteShard(label string, g *Graph, globals []TableID, replicas []RemoteReplica, opt RemoteOptions) (*RemoteShard, error) {
	return remote.NewShard(label, g, globals, replicas, opt)
}

// ErrReadOnly reports a mutation against a read-only deployment — a
// coordinator over remote shards cannot ingest or remove tables, because
// the authoritative corpus lives on the shard daemons.
var ErrReadOnly = errors.New("thetis: deployment is read-only (mutate the shard daemons and re-bootstrap)")

// ServeShardSearch answers one POST /shard/search leg: it resolves the
// wire query's entity URIs against this daemon's graph (mapping unknown
// ones to request-scoped ephemeral IDs, so tuple arity — which the
// assignment normalization depends on — survives even for entities this
// daemon has never seen, without growing the graph), runs SearchShard
// (FallbackNone; the coordinator owns the full-scan decision), and returns
// the ranking in this daemon's own table IDs for the client to translate.
func (s *System) ServeShardSearch(ctx context.Context, req remote.SearchRequest) remote.SearchPayload {
	q := s.resolveWireQuery(req.Tuples)
	results, stats := s.SearchShard(ctx, q, req.K, ShardSearchOptions{ForceFullScan: req.ForceFullScan})
	wr := make([]remote.WireResult, len(results))
	for i, r := range results {
		wr[i] = remote.WireResult{Table: int32(r.Table), Score: r.Score}
	}
	return remote.SearchPayload{
		Results: wr,
		Stats: remote.WireStats{
			Candidates:   stats.Candidates,
			Scored:       stats.Scored,
			Pruned:       stats.Pruned,
			MappingMicro: stats.MappingTime.Microseconds(),
			TotalMicro:   stats.TotalTime.Microseconds(),
			Truncated:    stats.Truncated,
			Panicked:     stats.Panicked,
			SigmaHits:    stats.SigmaHits,
			SigmaMisses:  stats.SigmaMisses,
		},
	}
}

// resolveWireQuery maps entity URIs to this process's entity IDs, running
// entirely under the read lock. A URI this graph has never interned
// resolves to a request-scoped ephemeral ID counting down from the top of
// the EntityID space: distinct unknown URIs stay distinct (preserving
// tuple arity and the σ(e,e)=1 diagonal for repeats, exactly like a
// freshly interned untyped entity would), but nothing is written to the
// shared graph — a stream of searches with novel URIs must not grow the
// daemon's graph without bound or serialize the hot search path behind
// the global write locks. Every similarity guards out-of-range IDs with
// score 0 and informativeness falls back to weight 1, matching the
// behavior of an interned entity that carries no types, edges, vectors,
// or corpus mentions.
func (s *System) resolveWireQuery(tuples [][]string) Query {
	s.mu.RLock()
	defer s.mu.RUnlock()
	q := make(Query, len(tuples))
	var eph map[string]EntityID
	next := ^kg.EntityID(0) // far above any realistic intern count
	for i, uris := range tuples {
		tup := make(Tuple, len(uris))
		for j, uri := range uris {
			e, ok := s.graph.Lookup(uri)
			if !ok {
				if eph == nil {
					eph = make(map[string]EntityID)
				}
				id, seen := eph[uri]
				if !seen {
					id = next
					next--
					eph[uri] = id
				}
				e = id
			}
			tup[j] = e
		}
		q[i] = tup
	}
	return q
}

// ApplyShardArtifacts installs the coordinator's global-artifact bootstrap
// (POST /shard/artifacts) on this daemon: corpus-global IDF
// informativeness weights replace the local-lake default, the vote
// threshold is adopted, and — when an index spec is shipped — the LSEI is
// built under the GLOBAL frequent-type filter instead of a locally
// computed one, and Compact keeps that filter. After this call the
// daemon's SearchShard legs rank bit-identically to its slice of the
// coordinator's full corpus (docs/SHARDING.md).
//
// The shipped weights and filter are frozen snapshots of the
// coordinator's corpus: mutating this daemon's corpus afterwards keeps
// serving correct local rankings but breaks the deployment-wide
// bit-identity until the coordinator re-bootstraps.
func (s *System) ApplyShardArtifacts(a remote.Artifacts) error {
	if s.eng == nil {
		return errors.New("thetis: select a similarity before ApplyShardArtifacts")
	}
	var cfg IndexConfig
	if a.Index != nil {
		cfg = IndexConfig{
			Vectors:               a.Index.Vectors,
			BandSize:              a.Index.BandSize,
			FrequentTypeThreshold: a.Index.Threshold,
			ColumnAggregation:     a.Index.ColumnAggregation,
			Seed:                  a.Index.Seed,
		}
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("thetis: shard artifacts index spec: %w", err)
		}
	}
	s.maintMu.Lock()
	defer s.maintMu.Unlock()

	s.mu.Lock()
	if s.remotes != nil {
		s.mu.Unlock()
		return ErrReadOnly
	}
	weights := make(map[EntityID]float64, len(a.Informativeness))
	for uri, w := range a.Informativeness {
		weights[s.graph.AddEntity(uri, "")] = w
	}
	// No filter shipped for a type index freezes an empty one rather than
	// computing a local filter that would diverge across shards.
	filter := map[kg.TypeID]bool{}
	if a.HasFilter {
		for _, uri := range a.FrequentTypes {
			// A type this graph has not interned cannot appear in any local
			// entity's type set, so skipping it never changes a signature.
			if t, ok := s.graph.LookupType(uri); ok {
				filter[t] = true
			}
		}
	}
	// Absent entities weigh 1, exactly like df == 0 under the IDF formula.
	inf := func(e EntityID) float64 {
		if w, ok := weights[e]; ok {
			return w
		}
		return 1
	}
	s.eng.Inf = inf
	if a.Votes > 0 {
		s.SetVotes(a.Votes)
	}
	s.mu.Unlock()

	if a.Index == nil {
		return nil
	}
	// The filter stays a frozen global snapshot — no TypeFilterState, so
	// later local mutations extend signatures under it without re-balancing
	// (re-balancing against one daemon's sub-corpus would diverge from the
	// other daemons anyway; see the method comment).
	s.indexCfg, s.typeFilter, s.filterState = cfg, filter, nil
	s.buildIndexLocked()
	return nil
}

// ComputeShardArtifacts computes the bootstrap payload from this System's
// FULL corpus: IDF informativeness for every corpus entity (keyed by URI
// so shard daemons can resolve them in their own intern order), the
// frequent-type filter for type-similarity indexes, the vote threshold,
// and — when cfg is non-nil — the index spec every shard must build with.
// A nil cfg means the shard daemons serve unindexed (full-scan) legs.
func (s *System) ComputeShardArtifacts(cfg *IndexConfig, votes int) ShardArtifacts {
	s.mustEngine()
	s.mu.RLock()
	defer s.mu.RUnlock()
	inf := core.IDFInformativeness(s.lake)
	weights := make(map[string]float64)
	for _, e := range s.lake.DistinctEntities() {
		weights[s.graph.URI(e)] = inf(e)
	}
	a := ShardArtifacts{Informativeness: weights, Votes: votes}
	if cfg == nil {
		return a
	}
	c := *cfg
	a.Index = &remote.IndexSpec{
		Vectors:           c.Vectors,
		BandSize:          c.BandSize,
		Threshold:         thresholdOf(c),
		ColumnAggregation: c.ColumnAggregation,
		Seed:              c.Seed,
	}
	if s.embeddingSim() {
		return a // embedding LSEIs have no type filter
	}
	// The live filter state already holds the current filter at its
	// threshold; any other threshold is counted over the lake.
	var filter map[kg.TypeID]bool
	if fs := s.filterState; fs != nil && fs.Threshold() == thresholdOf(c) {
		filter = fs.Filter()
	} else {
		filter = core.FrequentTypesOver(s.lake, s.tj, thresholdOf(c))
	}
	uris := make([]string, 0, len(filter))
	for t, dropped := range filter {
		if dropped {
			uris = append(uris, s.graph.TypeURI(t))
		}
	}
	sort.Strings(uris)
	a.FrequentTypes = uris
	a.HasFilter = true
	return a
}

// ShardGlobalIDs replays a partitioner over the corpus in ID (= ingestion)
// order and returns, per shard, the IDs of the tables that shard owns —
// the local→global translation map a RemoteShard needs. The hash
// partitioner is stateless, so the replay places every table where the
// shard daemons' own loads did.
func (s *System) ShardGlobalIDs(part Partitioner) [][]TableID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([][]TableID, part.Shards())
	for id, t := range s.lake.Tables() {
		if t != nil {
			si := part.Assign(t)
			out[si] = append(out[si], TableID(id))
		}
	}
	return out
}

// UseRemoteShards turns the system into the coordinator daemon's backend
// (thetisd -shard-urls): the same serving surface with semantic search
// scattered to the given remote shards instead of the local lake. The
// local corpus — the FULL corpus, similarity selected, keyword index built
// if hybrid is served — keeps answering ParseQuery, keyword/hybrid's BM25
// half, /stats, and /tables/{id}, while every search fans out through the
// remote clients and merges with the standard Coordinator, so truncation,
// rescatter, and partial-failure semantics are exactly the local ones.
// From here on the system is read-only: mutations return ErrReadOnly.
// BootstrapShards must succeed before serving.
func (s *System) UseRemoteShards(shards ...*RemoteShard) {
	searchers := make([]Shard, len(shards))
	for i, sh := range shards {
		searchers[i] = sh
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.remotes = shards
	s.coord = NewCoordinator(searchers...)
}

// BootstrapShards computes the global artifacts from the local corpus —
// with the LSEI configuration the shard daemons must build (nil: they serve
// unindexed full-scan legs) and the vote threshold — and ships them to
// every replica of every remote shard. It must succeed before serving: an
// un-bootstrapped shard daemon ranks with local weights and filter, which
// is correct for its own corpus but not bit-identical to the deployment.
func (s *System) BootstrapShards(ctx context.Context, cfg *IndexConfig, votes int) error {
	a := s.ComputeShardArtifacts(cfg, votes)
	var errs []string
	for _, sh := range s.remotes {
		if err := sh.PushArtifacts(ctx, a); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("thetis: bootstrap: %s", strings.Join(errs, "; "))
	}
	return nil
}

// ShardStatuses snapshots every remote shard's per-replica breaker state
// (the coordinator's /readyz breakdown); empty outside coordinator mode.
func (s *System) ShardStatuses() []RemoteStatus {
	out := make([]RemoteStatus, len(s.remotes))
	for i, sh := range s.remotes {
		out[i] = sh.Status()
	}
	return out
}

// StartProbes starts every remote shard's background health probing; call
// the returned stop on shutdown.
func (s *System) StartProbes(interval time.Duration) (stop func()) {
	stops := make([]func(), len(s.remotes))
	for i, sh := range s.remotes {
		stops[i] = sh.StartProbes(interval)
	}
	return func() {
		for _, st := range stops {
			st()
		}
	}
}
