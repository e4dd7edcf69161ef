package thetis

// Shard-count invariance battery (docs/SHARDING.md): a System must rank
// bit-for-bit like Algorithm 1 assembled straight from internal/core over
// one lake (internal/reference) — same global table IDs, same scores, same
// order — for every shard count, partitioning strategy, similarity,
// aggregation, score mode, parallelism, and LSH setting. These tests are
// the executable form of that contract.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"thetis/internal/bm25"
	"thetis/internal/core"
	"thetis/internal/datagen"
	"thetis/internal/reference"
)

var (
	batteryOnce    sync.Once
	batteryKG      *datagen.KG
	batteryTJ      *core.TypeJaccard
	batteryTables  []*Table
	batteryQueries []Query
)

// batteryEnv generates a small synthetic corpus once: a typed KG, a few
// hundred WT2015-profile tables (iterated in ingestion order so the
// reference lake and every System assign identical global IDs), and mixed
// 1-/5-tuple queries.
func batteryEnv(t *testing.T) (*datagen.KG, []*Table, []Query) {
	t.Helper()
	batteryOnce.Do(func() {
		batteryKG = datagen.GenerateKG(datagen.KGConfig{
			Domains: 5, LeafTypesPerDomain: 2, MembersPerLeafType: 40,
			GroupsPerDomain: 6, Places: 25, EdgesPerMember: 2, Seed: 17,
		})
		l := datagen.GenerateCorpus(batteryKG, datagen.ProfileWT2015(300))
		for id := 0; id < l.NumTables(); id++ {
			batteryTables = append(batteryTables, l.Table(TableID(id)))
		}
		for _, bq := range datagen.GenerateQueries(batteryKG, datagen.QueryConfig{
			Count: 4, TuplesPerQuery: 5, Width: 3, Seed: 17,
		}) {
			batteryQueries = append(batteryQueries, bq.Truncate(1).Query, bq.Query)
		}
		batteryTJ = core.NewTypeJaccard(batteryKG.Graph)
	})
	return batteryKG, batteryTables, batteryQueries
}

// shardAxis is the deployment axis every battery sweeps: shard counts
// {1, 2, 4} under both partitioners. part makes a fresh partitioner per
// system — the size-balanced one is stateful.
type shardAxis struct {
	name string
	part func() Partitioner
}

func shardAxes() []shardAxis {
	var out []shardAxis
	for _, n := range []int{1, 2, 4} {
		out = append(out,
			shardAxis{fmt.Sprintf("hash%d", n), func() Partitioner { return NewHashPartitioner(n) }},
			shardAxis{fmt.Sprintf("size%d", n), func() Partitioner { return NewBalancedPartitioner(n) }})
	}
	return out
}

// typeReference is the core-assembled reference over the given tables with
// type similarity.
func typeReference(t *testing.T, tables []*Table) *reference.Reference {
	t.Helper()
	kgEnv, _, _ := batteryEnv(t)
	return reference.New(kgEnv.Graph, tables, batteryTJ)
}

// buildPair ingests the same table sequence into the core-assembled
// reference and a System partitioned by part, both with type similarity.
func buildPair(t *testing.T, part Partitioner) (*reference.Reference, *System) {
	t.Helper()
	kgEnv, tables, _ := batteryEnv(t)
	ss := NewSharded(kgEnv.Graph, part)
	for i, tb := range tables {
		if got := ss.AddTable(tb); got != TableID(i) {
			t.Fatalf("System assigned ID %d to table %d", got, i)
		}
	}
	ss.UseTypeSimilarity()
	return typeReference(t, tables), ss
}

// assertIdenticalRankings compares every query's ranking — IDs and scores,
// bit for bit — between the reference and the system.
func assertIdenticalRankings(t *testing.T, label string, ref *reference.Reference, ss *System, queries []Query, k int) {
	t.Helper()
	for qi, q := range queries {
		want, wantStats := ref.Search(q, k)
		got, gotStats := ss.SearchStats(q, k)
		if len(got) != len(want) {
			t.Fatalf("%s q%d: system returned %d results, reference %d", label, qi, len(got), len(want))
		}
		for i := range want {
			if got[i].Table != want[i].Table || got[i].Score != want[i].Score {
				t.Fatalf("%s q%d rank %d: system %+v, reference %+v", label, qi, i, got[i], want[i])
			}
		}
		if wantStats.Truncated || gotStats.Truncated {
			t.Fatalf("%s q%d: unexpected truncation (reference=%v system=%v)",
				label, qi, wantStats.Truncated, gotStats.Truncated)
		}
	}
}

func TestShardCountInvarianceFullScan(t *testing.T) {
	_, _, queries := batteryEnv(t)
	configs := []struct {
		name string
		agg  Aggregation
		mode ScoreMode
		par  int
	}{
		{"max-entitywise-par0", AggregateMax, ModeEntityWise, 0},
		{"avg-entitywise-par1", AggregateAvg, ModeEntityWise, 1},
		{"max-pairwise-par4", AggregateMax, ModePairwise, 4},
		{"avg-pairwise-par1", AggregateAvg, ModePairwise, 1},
	}
	for _, ax := range shardAxes() {
		ref, ss := buildPair(t, ax.part())
		for _, cfg := range configs {
			ref.Engine.Agg, ref.Engine.Mode, ref.Engine.Parallelism = cfg.agg, cfg.mode, cfg.par
			ss.SetAggregation(cfg.agg)
			ss.SetScoreMode(cfg.mode)
			ss.SetParallelism(cfg.par)
			label := ax.name + "/" + cfg.name
			assertIdenticalRankings(t, label, ref, ss, queries, 10)
			assertIdenticalRankings(t, label+"/all", ref, ss, queries[:2], -1)
		}
	}
}

func TestShardCountInvarianceWithLSH(t *testing.T) {
	_, _, queries := batteryEnv(t)
	for _, ax := range shardAxes() {
		ref, ss := buildPair(t, ax.part())
		cfg := DefaultIndexConfig()
		ref.Index = core.BuildTypeLSEI(ref.Lake, batteryTJ, cfg)
		ss.BuildIndex(cfg)
		if !ss.HasIndex() {
			t.Fatalf("%s: not every shard has an index", ax.name)
		}
		for _, votes := range []int{1, 2, 3} {
			ref.Votes = votes
			ss.SetVotes(votes)
			assertIdenticalRankings(t, ax.name+"/lsh", ref, ss, queries, 10)
		}
	}
}

func TestShardCountInvarianceEmbeddings(t *testing.T) {
	kgEnv, tables, queries := batteryEnv(t)
	_, ss := buildPair(t, NewHashPartitioner(3))
	store := ss.TrainEmbeddings(
		WalkConfig{WalksPerEntity: 4, Length: 5, Undirected: true, Seed: 9},
		TrainConfig{Dim: 16, Window: 3, Negatives: 3, Epochs: 2, LearningRate: 0.03, Seed: 9},
	)
	ss.UseEmbeddingSimilarity()
	ec := core.NewEmbeddingCosine(kgEnv.Graph, store)
	ref := reference.New(kgEnv.Graph, tables, ec)
	assertIdenticalRankings(t, "embeddings", ref, ss, queries, 10)

	// Hyperplane-LSH prefiltered as well.
	cfg := DefaultIndexConfig()
	ref.Index = core.BuildEmbeddingLSEI(ref.Lake, ec, store.Dim(), cfg)
	ref.Votes = 2
	ss.BuildIndex(cfg)
	ss.SetVotes(2)
	assertIdenticalRankings(t, "embeddings-lsh", ref, ss, queries, 10)
}

func assertSameIDs(t *testing.T, label string, want, got []TableID) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s result counts differ: reference %d, system %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s rank %d differs: reference %d, system %d", label, i, want[i], got[i])
		}
	}
}

func TestShardedKeywordAndHybridMatchReference(t *testing.T) {
	_, _, queries := batteryEnv(t)
	ref, ss := buildPair(t, NewHashPartitioner(4))
	ref.Keyword = bm25.IndexLake(ref.Lake)
	ss.BuildKeywordIndex()
	kw := "member domain city"
	assertSameIDs(t, "keyword", ref.KeywordSearch(kw, 10), ss.KeywordSearch(kw, 10))
	assertSameIDs(t, "hybrid", ref.HybridSearch(queries[1], kw, 10), ss.HybridSearch(queries[1], kw, 10))
}

func TestShardedIncrementalIngestionKeepsInvariance(t *testing.T) {
	_, tables, queries := batteryEnv(t)
	_, ss := buildPair(t, NewHashPartitioner(3))
	cfg := DefaultIndexConfig()
	ss.BuildIndex(cfg)
	// Re-ingest a few tables under fresh IDs after the indexes were built:
	// the system must extend incrementally and rank like a from-scratch
	// reference over the longer sequence.
	all := append(append([]*Table(nil), tables...), tables[:5]...)
	for i, tb := range tables[:5] {
		if got, want := ss.AddTable(tb), TableID(len(tables)+i); got != want {
			t.Fatalf("post-index global ID %d, want %d", got, want)
		}
	}
	ref := typeReference(t, all)
	ref.Index = core.BuildTypeLSEI(ref.Lake, batteryTJ, cfg)
	ref.Votes = 2
	ss.SetVotes(2)
	assertIdenticalRankings(t, "incremental", ref, ss, queries, 10)
}

// staticShard is a Shard returning a fixed ranking — the public-API
// equivalent of a remote shard for partial-failure and tie-merge tests.
type staticShard struct {
	res   []Result
	stats SearchStats
}

func (f staticShard) SearchShard(ctx context.Context, q Query, k int, opts ShardSearchOptions) ([]Result, SearchStats) {
	if ctx.Err() != nil {
		st := f.stats
		st.Truncated = true
		return nil, st
	}
	res := f.res
	if k >= 0 && k < len(res) {
		res = res[:k]
	}
	return res, f.stats
}

func TestCoordinatorPartialFailureDeterministic(t *testing.T) {
	healthy := staticShard{
		res:   []Result{{Table: 2, Score: 0.9}, {Table: 4, Score: 0.5}},
		stats: SearchStats{Candidates: 2, Scored: 2},
	}
	// A panicking shard contributes an empty truncated leg; the merged
	// result is healthy's correctly ranked prefix, marked truncated.
	live := NewCoordinator(healthy, deadShard{})
	got, stats := live.Search(context.Background(), Query{}, 10)
	if len(got) != 2 || got[0].Table != 2 || got[1].Table != 4 {
		t.Fatalf("partial failure lost the healthy ranking: %v", got)
	}
	if !stats.Truncated {
		t.Fatal("merged stats must be marked truncated after a failed leg")
	}
	// Determinism: repeated searches give the same answer.
	again, _ := live.Search(context.Background(), Query{}, 10)
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("partial-failure result not deterministic: %v vs %v", got, again)
		}
	}
}

// deadShard always fails by panicking; the coordinator must contain it.
type deadShard struct{}

func (deadShard) SearchShard(ctx context.Context, q Query, k int, opts ShardSearchOptions) ([]Result, SearchStats) {
	panic("shard down")
}

// erroringShard degrades the way a remote shard does: empty truncated leg
// with the cause in ShardErrors.
type erroringShard struct{ msg string }

func (e erroringShard) SearchShard(ctx context.Context, q Query, k int, opts ShardSearchOptions) ([]Result, SearchStats) {
	return nil, SearchStats{Truncated: true, ShardErrors: []string{e.msg}}
}

func TestCoordinatorAllLegsFailExplicitEmpty(t *testing.T) {
	// Every leg fails — one by panicking, one by degrading like a remote
	// shard whose replicas are all dead. The edge case must compose into
	// an EXPLICIT empty truncated result (not nil-with-ok stats, not a
	// panic escaping the coordinator), with per-shard causes in
	// Stats.ShardErrors so an operator can tell which legs died and why.
	live := NewCoordinator(deadShard{}, erroringShard{msg: "attempt 1: connection refused"})
	got, stats := live.Search(context.Background(), Query{}, 10)
	if len(got) != 0 {
		t.Fatalf("all-legs-failed search returned results: %v", got)
	}
	if !stats.Truncated {
		t.Fatal("all-legs-failed search must be marked truncated")
	}
	if len(stats.ShardErrors) != 2 {
		t.Fatalf("want one ShardErrors entry per failed leg, got %v", stats.ShardErrors)
	}
	var sawPanic, sawRefused bool
	for _, e := range stats.ShardErrors {
		if strings.HasPrefix(e, "shard 0:") && strings.Contains(e, "panic: shard down") {
			sawPanic = true
		}
		if strings.HasPrefix(e, "shard 1:") && strings.Contains(e, "connection refused") {
			sawRefused = true
		}
	}
	if !sawPanic || !sawRefused {
		t.Fatalf("per-shard causes missing or unlabeled: %v", stats.ShardErrors)
	}
	// Determinism: the same dead fleet answers identically every time.
	again, astats := live.Search(context.Background(), Query{}, 10)
	if len(again) != 0 || !astats.Truncated || len(astats.ShardErrors) != 2 {
		t.Fatalf("all-legs-failed result not deterministic: %v / %+v", again, astats.ShardErrors)
	}
}

func TestCoordinatorCrossShardTiesStableUnderShardOrder(t *testing.T) {
	// Three shards with fully tied scores: the merged order must be
	// ascending table ID no matter how the shards are ordered.
	a := staticShard{res: []Result{{Table: 3, Score: 0.5}, {Table: 9, Score: 0.5}}}
	b := staticShard{res: []Result{{Table: 1, Score: 0.5}, {Table: 7, Score: 0.5}}}
	c := staticShard{res: []Result{{Table: 0, Score: 0.5}, {Table: 5, Score: 0.5}}}
	want := []TableID{0, 1, 3, 5, 7, 9}
	for _, order := range [][]Shard{
		{a, b, c}, {c, b, a}, {b, c, a}, {a, c, b},
	} {
		got, _ := NewCoordinator(order...).Search(context.Background(), Query{}, -1)
		if len(got) != len(want) {
			t.Fatalf("merged %d results, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Table != want[i] {
				t.Fatalf("tie order depends on shard order: got %v at rank %d, want %v", got[i].Table, i, want[i])
			}
		}
	}
}

func TestShardedSearchContextCancellation(t *testing.T) {
	_, _, queries := batteryEnv(t)
	_, ss := buildPair(t, NewHashPartitioner(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, stats := ss.SearchStatsContext(ctx, queries[1], 10)
	if !stats.Truncated {
		t.Fatal("cancelled sharded search must report truncation")
	}
}

func TestShardedStatsMatchReference(t *testing.T) {
	ref, ss := buildPair(t, NewBalancedPartitioner(4))
	a, b := ref.Lake.ComputeStats(), ss.Stats()
	if a.Tables != b.Tables || a.DistinctEntities != b.DistinctEntities {
		t.Fatalf("aggregate stats diverge: %+v vs %+v", a, b)
	}
	const eps = 1e-9
	if diff := a.MeanRows - b.MeanRows; diff > eps || diff < -eps {
		t.Fatalf("mean rows diverge: %v vs %v", a.MeanRows, b.MeanRows)
	}
	if diff := a.MeanColumns - b.MeanColumns; diff > eps || diff < -eps {
		t.Fatalf("mean columns diverge: %v vs %v", a.MeanColumns, b.MeanColumns)
	}
	total := 0
	for i := 0; i < ss.NumShards(); i++ {
		total += ss.ShardNumTables(i)
	}
	if total != ss.NumTables() {
		t.Fatalf("shards own %d tables, system reports %d", total, ss.NumTables())
	}
}
