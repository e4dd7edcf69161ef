// Package thetis is a semantic table search engine for data lakes, a
// from-scratch reproduction of "Fantastic Tables and Where to Find Them:
// Table Search in Semantic Data Lakes" (EDBT 2025).
//
// A semantic data lake is a table repository whose cell values are
// (partially) linked to the entities of a knowledge graph. Thetis answers
// entity-tuple queries — "find tables about ⟨Ron Santo, Chicago Cubs⟩" — by
// ranking every table with a principled semantic relevance score (SemRel)
// built from an entity similarity σ (taxonomy type overlap or graph
// embeddings), and scales to large repositories with locality-sensitive
// entity indexes (LSEI) that prune the search space before scoring.
//
// The typical flow:
//
//	g := thetis.NewGraph()                      // build or load a KG
//	thetis.LoadTriples(g, file)
//	sys := thetis.New(g)                        // a semantic data lake
//	thetis.LinkTable(tbl, thetis.NewDictionaryLinker(g))
//	sys.AddTable(tbl)                           // ingest annotated tables
//	sys.UseTypeSimilarity()                     // or TrainEmbeddings + UseEmbeddingSimilarity
//	sys.BuildIndex(thetis.DefaultIndexConfig()) // optional LSH prefiltering
//	results := sys.Search(query, 10)
package thetis

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"thetis/internal/bm25"
	"thetis/internal/core"
	"thetis/internal/embedding"
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/linking"
	"thetis/internal/obs"
	"thetis/internal/table"
)

// Re-exported substrate types. These aliases make the internal
// implementation packages usable through the public API.
type (
	// Graph is a labeled directed knowledge graph with a type taxonomy.
	Graph = kg.Graph
	// EntityID identifies a KG entity.
	EntityID = kg.EntityID
	// TypeID identifies a KG type.
	TypeID = kg.TypeID
	// Table is one data lake table.
	Table = table.Table
	// Cell is one table cell (value + optional entity annotation).
	Cell = table.Cell
	// TableID identifies a table within a lake.
	TableID = lake.TableID
	// Tuple is one entity tuple of a query.
	Tuple = core.Tuple
	// Query is a set of entity tuples.
	Query = core.Query
	// Result is one scored table.
	Result = core.Result
	// SearchStats reports how a search spent its time.
	SearchStats = core.Stats
	// Trace is the structured per-stage breakdown of one search
	// (SearchStats.Trace): prefilter probe/vote, column mapping, scoring,
	// ranking.
	Trace = obs.Trace
	// TraceStage is one pipeline stage of a Trace.
	TraceStage = obs.Stage
	// IndexConfig parameterizes the LSH prefiltering index.
	IndexConfig = core.LSEIConfig
	// Linker resolves cell values to KG entities.
	Linker = linking.Linker
	// Similarity is the entity similarity σ.
	Similarity = core.Similarity
	// EmbeddingStore holds trained entity embeddings.
	EmbeddingStore = embedding.Store
	// WalkConfig controls random-walk generation for embedding training.
	WalkConfig = embedding.WalkConfig
	// TrainConfig controls skip-gram embedding training.
	TrainConfig = embedding.TrainConfig
	// Aggregation selects MAX or AVG row-score aggregation.
	Aggregation = core.Aggregation
	// LoadOptions configures lenient (quarantine-based) triple loading.
	LoadOptions = kg.LoadOptions
	// Quarantine collects records rejected by lenient ingestion.
	Quarantine = obs.Quarantine
	// IngestReport aggregates the triple and table quarantines of one
	// corpus load (served on the daemon's GET /debug/ingest).
	IngestReport = obs.IngestReport
)

// Aggregation modes (Section 5.3 of the paper; MAX is recommended).
const (
	AggregateMax = core.AggregateMax
	AggregateAvg = core.AggregateAvg
)

// NewGraph returns an empty knowledge graph.
func NewGraph() *Graph { return kg.NewGraph() }

// LoadTriples loads an N-Triples-subset stream into g, strictly: the first
// malformed line aborts the load.
func LoadTriples(g *Graph, r io.Reader) error { return kg.LoadTriples(g, r) }

// LoadTriplesOpts is LoadTriples with explicit strictness and quarantine
// configuration; with opts.Lenient, malformed lines are skipped and
// recorded instead of aborting.
func LoadTriplesOpts(g *Graph, r io.Reader, opts LoadOptions) error {
	return kg.LoadTriplesOpts(g, r, opts)
}

// NewIngestReport creates the quarantine pair (triples + tables) threaded
// through lenient loads and served on the daemon's /debug/ingest.
func NewIngestReport() *IngestReport { return obs.NewIngestReport(nil) }

// NewTable creates an empty table with the given column headers.
func NewTable(name string, attributes []string) *Table { return table.New(name, attributes) }

// LinkedCell builds a cell annotated with an entity.
func LinkedCell(value string, e EntityID) Cell { return table.LinkedCell(value, e) }

// ReadCSV parses a CSV stream into an (unlinked) table.
func ReadCSV(name string, r io.Reader) (*Table, error) { return table.ReadCSV(name, r) }

// NewDictionaryLinker links cell values by exact normalized label match.
func NewDictionaryLinker(g *Graph) Linker { return linking.NewDictionaryLinker(g) }

// NewFuzzyLinker links cell values by token overlap with entity labels.
// minOverlap is the fraction of value tokens that must match (e.g. 0.75).
func NewFuzzyLinker(g *Graph, minOverlap float64) Linker {
	return linking.NewFuzzyLinker(g, minOverlap)
}

// DefaultIndexConfig returns the paper's recommended (30, 10) LSH
// configuration.
func DefaultIndexConfig() IndexConfig { return core.DefaultLSEIConfig() }

// DefaultWalkConfig returns standard random-walk settings.
func DefaultWalkConfig() WalkConfig { return embedding.DefaultWalkConfig() }

// DefaultTrainConfig returns standard skip-gram settings.
func DefaultTrainConfig() TrainConfig { return embedding.DefaultTrainConfig() }

// System is a semantic data lake with its search machinery: the KG, the
// table corpus in one lake, an entity similarity, an optional LSH
// prefiltering index, and a BM25 keyword index for hybrid search. Ingest
// tables first, then choose a similarity, then search. A table's ID is its
// lake ID, assigned in ingestion order and never reused.
//
// A search is one pipeline over the lake: the LSEI prefilter when an index
// is active, then Algorithm 1 over the candidates. In coordinator mode
// (UseRemoteShards) it scatters over remote shard daemons instead, each
// serving its hash-assigned slice of the corpus (docs/SHARDING.md), with
// bit-identical rankings.
//
// Once configured, a System is safe for concurrent searches AND concurrent
// mutations (AddTable/AddTableJSON/RemoveTable, docs/LIVE_INDEX.md): search
// paths hold a read lock for their full duration, mutations a brief write
// lock, so every search observes the corpus, the LSEI, the frequent-type
// filter, and the keyword index at one consistent epoch. Configuration
// calls (similarity selection, embedding training) remain setup-time and
// must not race with serving.
type System struct {
	graph *Graph

	// eng scores the lake (nil until a similarity is selected). index holds
	// the LSEI behind an atomic pointer so a background build can hot-swap
	// it under live searches; votes is its vote threshold.
	lake  *lake.Lake
	eng   *core.Engine
	index atomic.Pointer[core.LSEI]
	votes atomic.Int32

	// coord scatters searches over remotes; both are nil unless
	// UseRemoteShards has run.
	coord   *Coordinator
	remotes []*RemoteShard

	// tj or ec is the σ the engine scores with: installEngine records the
	// chosen one and nils the other, so exactly one is set once a
	// similarity is selected.
	tj    *core.TypeJaccard
	ec    *core.EmbeddingCosine
	store *embedding.Store

	// indexCfg and typeFilter are what the LSEI is built with (BuildIndex,
	// ApplyShardArtifacts); filterState keeps the filter — and
	// through it the LSEI's signatures — current under mutation (nil for
	// embedding indexes, frozen shipped filters, or when no index is built).
	// Guarded by maintMu for structure, mu for the shared filter map.
	indexCfg    IndexConfig
	typeFilter  map[kg.TypeID]bool
	filterState *core.TypeFilterState

	keyword *bm25.Index

	// mu is the serving lock: searches (and other corpus reads) hold RLock
	// for their full duration, mutations hold Lock while they patch the
	// lake, the LSEI, the filter, and the keyword index together.
	mu sync.RWMutex
	// maintMu serializes maintenance against mutations: AddTable/
	// RemoveTable, index builds, Compact, and AttachDeltaLog all
	// hold it (lock order: maintMu before mu). Index builds run under
	// maintMu alone so searches keep flowing while a fresh index is built
	// aside and hot-swapped in.
	maintMu sync.Mutex
	// epoch counts mutations (one bump per AddTable/RemoveTable) for
	// operators and the delta log (IndexEpoch); nothing internal is
	// validated against it.
	epoch atomic.Uint64
	// delta, when attached, write-ahead-logs every mutation so a restart
	// can replay base corpus + deltas (AttachDeltaLog). deltaErr is its
	// sticky failure, readable without any lock (DeltaLogError).
	delta    *deltaLog
	deltaErr atomic.Pointer[error]
}

// New creates an empty semantic data lake over the knowledge graph g.
func New(g *Graph) *System {
	s := &System{graph: g, lake: lake.New(g)}
	s.votes.Store(1)
	return s
}

// Graph returns the underlying knowledge graph.
func (s *System) Graph() *Graph { return s.graph }

// NumTables returns the number of live (not removed) tables.
func (s *System) NumTables() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lake.NumTables()
}

// Table returns an ingested table by its ID, or nil when the ID was never
// assigned or the table has been removed.
func (s *System) Table(id TableID) *Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lake.Table(id)
}

// IngestOptions configures IngestCorpus. The zero value is strict
// ingestion: the first malformed table aborts the load.
type IngestOptions struct {
	// Lenient skips malformed tables (recording them in Report) instead of
	// aborting on the first one.
	Lenient bool
	// MaxLineBytes caps one JSONL line; 0 means the kg default (16 MiB).
	MaxLineBytes int
	// ErrorBudget bounds how many tables lenient mode may quarantine
	// before giving up; negative means unlimited.
	ErrorBudget int
	// Source names the stream in quarantine records (e.g. the file path).
	Source string
	// Report receives quarantine records and accept/skip counts; may be
	// nil.
	Report *IngestReport
}

// IngestCorpus streams a JSONL corpus of annotated tables from r into the
// lake, returning how many tables were ingested. With opts.Lenient,
// malformed tables are quarantined (never interned into the graph) and
// ingestion continues, so searching the surviving tables behaves exactly
// like loading the clean subset directly.
func (s *System) IngestCorpus(r io.Reader, opts IngestOptions) (int, error) {
	var q *obs.Quarantine
	if opts.Report != nil {
		q = opts.Report.Tables
	}
	jr := table.NewJSONReaderOpts(s.graph, r, table.ReadOptions{
		Lenient:      opts.Lenient,
		MaxLineBytes: opts.MaxLineBytes,
		ErrorBudget:  opts.ErrorBudget,
		Source:       opts.Source,
		Quarantine:   q,
	})
	n := 0
	for {
		t, err := jr.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		s.AddTable(t)
		q.Accept()
		n++
	}
}

// Refresh rebuilds the similarity structures, informativeness weights, and
// any built indexes against the current state of the graph and lake. Call
// it after ingesting tables that mention newly added KG entities, or after
// large ingestion batches to refresh corpus-frequency weights.
func (s *System) Refresh() {
	rebuildIndex := s.HasIndex()
	switch {
	case s.ec != nil:
		s.UseEmbeddingSimilarity()
	case s.tj != nil:
		s.UseTypeSimilarity()
	}
	if rebuildIndex {
		s.BuildIndex(s.indexCfg)
	}
	if s.keyword != nil {
		s.BuildKeywordIndex()
	}
}

// LinkTable annotates a table's cells with l before ingestion.
func LinkTable(t *Table, l Linker) int { return linking.LinkTable(t, l) }

// TrainEmbeddings generates random walks over the KG and trains skip-gram
// entity embeddings (the RDF2Vec substitute), storing them on the system.
func (s *System) TrainEmbeddings(w WalkConfig, t TrainConfig) *EmbeddingStore {
	s.store = embedding.TrainGraph(s.graph, w, t)
	return s.store
}

// SetEmbeddings installs externally trained embeddings.
func (s *System) SetEmbeddings(store *EmbeddingStore) { s.store = store }

// SaveEmbeddings serializes the trained embeddings (binary format).
func (s *System) SaveEmbeddings(w io.Writer) error {
	if s.store == nil {
		return errNoEmbeddings
	}
	return s.store.Write(w)
}

// LoadEmbeddings installs embeddings previously written by SaveEmbeddings.
func (s *System) LoadEmbeddings(r io.Reader) error {
	store, err := embedding.ReadStore(r)
	if err != nil {
		return err
	}
	s.store = store
	return nil
}

// installEngine records sim as the system's σ and gives the lake a fresh
// engine over it, weighing entities by IDF over the lake. It is the one
// place that resets what is derived from σ: the index (signatures depend
// on the similarity) and the frequent-type filter.
func (s *System) installEngine(sim Similarity) {
	s.tj, _ = sim.(*core.TypeJaccard)
	s.ec, _ = sim.(*core.EmbeddingCosine)
	s.eng = core.NewEngine(s.lake, sim)
	s.setIndex(nil)
	s.typeFilter, s.filterState = nil, nil
}

// UseTypeSimilarity configures σ as the adjusted Jaccard of taxonomy-
// expanded entity type sets (Equation 4; the paper's STST).
func (s *System) UseTypeSimilarity() {
	s.installEngine(core.NewTypeJaccard(s.graph))
}

// UseEmbeddingSimilarity configures σ as the clamped cosine of entity
// embeddings (the paper's STSE). TrainEmbeddings or SetEmbeddings must have
// been called.
func (s *System) UseEmbeddingSimilarity() {
	if s.store == nil {
		panic("thetis: UseEmbeddingSimilarity before TrainEmbeddings/SetEmbeddings")
	}
	s.installEngine(core.NewEmbeddingCosine(s.graph, s.store))
}

// SetAggregation switches between MAX (default, recommended) and AVG
// row-score aggregation.
func (s *System) SetAggregation(a Aggregation) {
	s.mustEngine()
	s.eng.Agg = a
}

// SetParallelism bounds the scoring worker count per search (0 = one
// worker per CPU).
func (s *System) SetParallelism(p int) {
	s.mustEngine()
	s.eng.Parallelism = p
}

// thresholdOf resolves the effective frequent-type threshold of a config
// (0 means the paper's default 0.5, matching BuildTypeLSEIFiltered).
func thresholdOf(cfg IndexConfig) float64 {
	if cfg.FrequentTypeThreshold == 0 {
		return 0.5
	}
	return cfg.FrequentTypeThreshold
}

// SetVotes sets the LSEI vote threshold used by Search (1 disables voting;
// the paper finds 3 faster at equal quality). Votes threshold per-entity
// collision counts, and a table's collisions all come from the shard that
// holds it, so a remote shard daemon takes the same threshold.
func (s *System) SetVotes(v int) { s.votes.Store(int32(v)) }

// BuildIndex builds the LSH prefiltering index (LSEI) for the currently
// selected similarity, synchronously: with type similarity under a fresh
// frequent-type filter that AddTable/RemoveTable then keep current.
//
// The index is built aside and installed atomically, so BuildIndex may run
// concurrently with searches (which serve brute force until the swap). It
// serializes against ingestion via the maintenance lock; similarity
// changes remain setup-time. The daemon runs it in the background
// (server.ActivateIndex).
func (s *System) BuildIndex(cfg IndexConfig) {
	s.mustEngine()
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	start := time.Now()
	cfg.FrequentTypeThreshold = thresholdOf(cfg)
	s.indexCfg = cfg
	s.typeFilter, s.filterState = nil, nil
	if !s.embeddingSim() {
		s.filterState = core.NewTypeFilterState(s.lake, s.tj, cfg.FrequentTypeThreshold)
		s.typeFilter = s.filterState.Filter()
	}
	s.buildIndexLocked()
	mIndexBuild.Observe(time.Since(start).Seconds())
}

// buildIndexLocked builds and hot-swaps the LSEI under the configuration
// and frequent-type filter in force. Caller holds maintMu.
func (s *System) buildIndexLocked() {
	var ix *core.LSEI
	if s.embeddingSim() {
		ix = core.BuildEmbeddingLSEI(s.lake, s.ec, s.store.Dim(), s.indexCfg)
	} else {
		ix = core.BuildTypeLSEIFiltered(s.lake, s.tj, s.indexCfg, s.typeFilter)
	}
	s.setIndex(ix)
}

// setIndex atomically installs ix (nil removes the index), safely under
// concurrent searches, and sets thetis_index_items to its signature count.
// Mutations reinstall the live index to refresh the gauge.
func (s *System) setIndex(ix *core.LSEI) {
	s.index.Store(ix)
	n := 0
	if ix != nil {
		n = ix.NumItems()
	}
	mIndexItems.Set(float64(n))
}

// HasIndex reports whether an LSEI is active.
func (s *System) HasIndex() bool { return s.index.Load() != nil }

// Search ranks tables by semantic relevance to the query and returns the
// top-k (k < 0 returns all relevant tables). When an index has been built,
// the search space is LSH-prefiltered first.
func (s *System) Search(q Query, k int) []Result {
	res, _ := s.SearchStats(q, k)
	return res
}

// SearchContext is Search honoring cancellation and deadlines: the LSEI
// probe/vote loop and the scoring workers check ctx cooperatively, so an
// expiring deadline returns promptly with the correctly ranked prefix of
// tables scored so far (SearchStatsContext exposes the Truncated marker).
func (s *System) SearchContext(ctx context.Context, q Query, k int) []Result {
	res, _ := s.SearchStatsContext(ctx, q, k)
	return res
}

// SearchStats is Search returning statistics as well: TotalTime is the
// engine time (the quantity of the paper's Table 3; over remote shards the
// slowest leg's), and the Trace carries the pipeline's stages — probe and
// vote when an index is active, then mapping/score/rank — with Trace.Total
// spanning everything. In coordinator mode the Trace instead carries every
// remote leg's scatter stage and its stages labeled with its shard, plus
// the merge stage; the per-leg counters sum and Truncated ORs across legs.
//
// When the prefilter yields no candidates (e.g. every query entity's types
// were dropped by the frequent-type filter), the search falls back to a
// full scan rather than silently returning nothing.
func (s *System) SearchStats(q Query, k int) ([]Result, SearchStats) {
	return s.SearchStatsContext(context.Background(), q, k)
}

// SearchStatsContext is SearchStats honoring cancellation and deadlines.
// When ctx dies mid-search the results are a best-effort, correctly ranked
// subset and Stats.Truncated is set — graceful degradation, not an error.
// In coordinator mode failed remote legs additionally surface in
// Stats.ShardErrors.
func (s *System) SearchStatsContext(ctx context.Context, q Query, k int) ([]Result, SearchStats) {
	s.mustEngine()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.search(ctx, q, k)
}

// search runs one semantic search under the caller's read lock: the one
// pipeline over the lake, with the full-scan fallback on an empty
// prefilter, or in coordinator mode a scatter over the remote shards.
func (s *System) search(ctx context.Context, q Query, k int) ([]Result, SearchStats) {
	if s.coord != nil {
		return s.coord.Search(ctx, q, k)
	}
	return core.SearchWithIndex(ctx, s.eng, s.index.Load(), int(s.votes.Load()), q, k, core.FallbackFullScan)
}

// ParseQuery resolves a textual query ("entity | entity" per line, matching
// URIs or labels) into entity tuples.
func (s *System) ParseQuery(text string) (Query, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return core.ParseQuery(s.graph, text)
}

// BuildKeywordIndex builds the BM25 index used by KeywordSearch and
// HybridSearch. The keyword index is global — BM25's IDF depends on
// corpus-wide document frequencies, so sharding it would change scores.
// Later AddTable/RemoveTable calls keep it current, so one build after
// bulk ingestion suffices.
func (s *System) BuildKeywordIndex() {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	kw := bm25.NewIndex()
	for id, t := range s.lake.Tables() {
		if t != nil {
			kw.Add(int32(id), bm25.TableText(t))
		}
	}
	kw.Finish()
	s.mu.Lock()
	s.keyword = kw
	s.mu.Unlock()
}

// KeywordSearch runs BM25 keyword search over table text and returns the
// top-k table IDs.
func (s *System) KeywordSearch(text string, k int) []TableID {
	s.mustKeyword()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.keywordSearchLocked(text, k)
}

func (s *System) keywordSearchLocked(text string, k int) []TableID {
	hits := s.keyword.Search(text, k)
	out := make([]TableID, len(hits))
	for i, h := range hits {
		out[i] = TableID(h.Doc)
	}
	return out
}

// HybridSearch complements BM25 keyword search with semantic search (the
// paper's STSTC/STSEC): the top half of each result list is merged. This is
// the configuration the paper finds best for recall — up to 5.4× over
// keyword search alone.
func (s *System) HybridSearch(q Query, keywords string, k int) []TableID {
	return s.HybridSearchContext(context.Background(), q, keywords, k)
}

// HybridSearchContext is HybridSearch honoring cancellation on its semantic
// half (the BM25 half is index-lookup fast and runs to completion).
func (s *System) HybridSearchContext(ctx context.Context, q Query, keywords string, k int) []TableID {
	s.mustEngine()
	s.mustKeyword()
	// One read lock across both halves: the semantic and keyword rankings
	// are computed against the same corpus epoch (and RLock does not nest
	// safely under a waiting writer).
	s.mu.RLock()
	defer s.mu.RUnlock()
	sem, _ := s.search(ctx, q, k)
	semIDs := make([]int, len(sem))
	for i, r := range sem {
		semIDs[i] = int(r.Table)
	}
	bmIDs := s.keywordSearchLocked(keywords, k)
	bmInts := make([]int, len(bmIDs))
	for i, id := range bmIDs {
		bmInts[i] = int(id)
	}
	merged := core.Complement(semIDs, bmInts, k)
	out := make([]TableID, len(merged))
	for i, id := range merged {
		out[i] = TableID(id)
	}
	return out
}

// Stats returns corpus statistics (table count, mean rows/columns, link
// coverage, distinct entities).
func (s *System) Stats() lake.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lake.ComputeStats()
}

var errNoEmbeddings = errors.New("thetis: no embeddings trained or loaded")

// embeddingSim reports whether the selected similarity is the embedding
// cosine, which indexes via hyperplane LSH instead of MinHash.
func (s *System) embeddingSim() bool { return s.ec != nil }

func (s *System) mustEngine() {
	if s.eng == nil {
		panic("thetis: select a similarity first (UseTypeSimilarity or UseEmbeddingSimilarity)")
	}
}

func (s *System) mustKeyword() {
	if s.keyword == nil {
		panic("thetis: BuildKeywordIndex before keyword/hybrid search")
	}
}
