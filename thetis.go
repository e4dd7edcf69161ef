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

	"thetis/internal/bm25"
	"thetis/internal/core"
	"thetis/internal/embedding"
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/linking"
	"thetis/internal/obs"
	"thetis/internal/shard"
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
	// ScoreMode selects entity-wise (Algorithm 1) or pairwise (Equation 1)
	// SemRel computation.
	ScoreMode = core.ScoreMode
	// MappingMethod selects the query-to-column assignment algorithm.
	MappingMethod = core.MappingMethod
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

// Score modes (Section 4.1; entity-wise is Algorithm 1 and the default).
const (
	ModeEntityWise = core.ModeEntityWise
	ModePairwise   = core.ModePairwise
)

// Mapping methods (Section 5.1; Hungarian is the paper's choice).
const (
	MappingHungarian = core.MappingHungarian
	MappingGreedy    = core.MappingGreedy
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
// table corpus partitioned into one or more in-process shards, an entity
// similarity, optional LSH prefiltering indexes, and a BM25 keyword index
// for hybrid search. Ingest tables first, then choose a similarity, then
// search. New builds the one-shard system; NewSharded partitions the corpus
// (docs/SHARDING.md). Every search is a scatter over the shards merged by
// one Coordinator, and one shard is simply the smallest scatter — rankings
// are bit-identical at every shard count.
//
// What stays global: table IDs (assigned in ingestion order), IDF
// informativeness weights, the LSEI frequent-type filter, the BM25 keyword
// index, the mutation epoch and delta log, and the full-scan fallback
// decision. What each shard owns: its slice of the tables, its LSEI and LSH
// buckets, its column-index memos, and its query-scoped σ caches.
//
// Once configured, a System is safe for concurrent searches AND concurrent
// mutations (AddTable/AddTableJSON/RemoveTable, docs/LIVE_INDEX.md): search
// paths hold a read lock for their full duration, mutations a brief write
// lock, so every search observes the corpus, the LSEIs, the frequent-type
// filter, and the keyword index at one consistent epoch. The locking is
// system-wide, not per shard, because scoring on one shard reads global
// structures. Configuration calls (similarity selection, embedding
// training) remain setup-time and must not race with serving.
type System struct {
	graph *Graph
	part  Partitioner

	// shards are the in-process partitions and lakes their sub-lakes, in
	// shard order; owner locates every global table ID. coord scatters over
	// the shards — or, in coordinator mode (UseRemoteShards), over remotes.
	shards  []*shard.Local
	lakes   []*lake.Lake
	owner   []shardLoc
	live    int // owner slots not tombstoned
	coord   *Coordinator
	remotes []*RemoteShard

	// tj or ec is the σ every shard engine scores with: installEngines
	// records the chosen one and nils the other, so exactly one is set once
	// a similarity is selected.
	tj    *core.TypeJaccard
	ec    *core.EmbeddingCosine
	store *embedding.Store

	// indexCfg and typeFilter are what every shard's LSEI is built with
	// (PrepareIndex); filterState keeps the filter — and through it every
	// shard's signatures — current under mutation (nil for embedding
	// indexes, frozen shipped filters, or when no index is prepared).
	// Guarded by maintMu for structure, mu for the shared filter map.
	indexCfg    IndexConfig
	typeFilter  map[kg.TypeID]bool
	filterState *core.TypeFilterState

	keyword *bm25.Index

	// mu is the serving lock: searches (and other corpus reads) hold RLock
	// for their full duration, mutations hold Lock while they patch a shard,
	// the filter, and the keyword index together.
	mu sync.RWMutex
	// maintMu serializes maintenance against mutations: AddTable/
	// RemoveTable, index builds and loads, Compact, and AttachDeltaLog all
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

// New creates an empty semantic data lake over the knowledge graph g, held
// in one shard.
func New(g *Graph) *System { return NewSharded(g, NewHashPartitioner(1)) }

// Graph returns the underlying knowledge graph.
func (s *System) Graph() *Graph { return s.graph }

// NumTables returns the number of live (not removed) tables.
func (s *System) NumTables() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// Table returns an ingested table by its global ID, or nil when the ID was
// never assigned or the table has been removed.
func (s *System) Table(id TableID) *Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tableLocked(id)
}

func (s *System) tableLocked(id TableID) *Table {
	if id < 0 || int(id) >= len(s.owner) {
		return nil
	}
	loc := s.owner[int(id)]
	if loc.shard < 0 {
		return nil
	}
	return s.lakes[loc.shard].Table(loc.local)
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
	rebuildIndex := s.hasAnyIndex()
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
// Embeddings are a graph property, shared by every shard.
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

// installEngines records sim as the system's σ and gives every shard a
// fresh engine over it with GLOBAL informativeness weights — the first of
// the three globals that keep rankings independent of the shard count. It is
// the one place that resets what is derived from σ: each shard's index
// (signatures depend on the similarity) and the frequent-type filter.
func (s *System) installEngines(sim Similarity) {
	s.tj, _ = sim.(*core.TypeJaccard)
	s.ec, _ = sim.(*core.EmbeddingCosine)
	inf := core.IDFInformativenessOver(s.lakes)
	for _, sh := range s.shards {
		eng := core.NewEngine(sh.Lake(), sim)
		eng.Inf = inf
		sh.SetEngine(eng)
	}
	s.typeFilter, s.filterState = nil, nil
}

// UseTypeSimilarity configures σ as the adjusted Jaccard of taxonomy-
// expanded entity type sets (Equation 4; the paper's STST).
func (s *System) UseTypeSimilarity() {
	s.installEngines(core.NewTypeJaccard(s.graph))
}

// UseEmbeddingSimilarity configures σ as the clamped cosine of entity
// embeddings (the paper's STSE). TrainEmbeddings or SetEmbeddings must have
// been called.
func (s *System) UseEmbeddingSimilarity() {
	if s.store == nil {
		panic("thetis: UseEmbeddingSimilarity before TrainEmbeddings/SetEmbeddings")
	}
	s.installEngines(core.NewEmbeddingCosine(s.graph, s.store))
}

// eachEngine applies a knob to every shard's engine.
func (s *System) eachEngine(set func(*core.Engine)) {
	s.mustEngine()
	for _, sh := range s.shards {
		set(sh.Engine())
	}
}

// SetAggregation switches between MAX (default, recommended) and AVG
// row-score aggregation.
func (s *System) SetAggregation(a Aggregation) {
	s.eachEngine(func(e *core.Engine) { e.Agg = a })
}

// SetScoreMode switches between entity-wise (default) and pairwise SemRel.
func (s *System) SetScoreMode(m ScoreMode) {
	s.eachEngine(func(e *core.Engine) { e.Mode = m })
}

// SetMapping switches the query-to-column assignment algorithm.
func (s *System) SetMapping(m MappingMethod) {
	s.eachEngine(func(e *core.Engine) { e.Mapping = m })
}

// SetParallelism bounds the scoring worker count per shard per search
// (0 = one worker per CPU, in every shard at once — fine for throughput,
// see docs/SHARDING.md for latency tuning).
func (s *System) SetParallelism(p int) {
	s.eachEngine(func(e *core.Engine) { e.Parallelism = p })
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
// collision counts within one shard, and a table's collisions all come from
// its own shard, so the threshold needs no rescaling across shard counts.
func (s *System) SetVotes(v int) {
	for _, sh := range s.shards {
		sh.SetVotes(v)
	}
}

var errSnapshotOneShard = errors.New("thetis: index snapshots cover exactly one shard")

// SaveIndex serializes the built LSEI so a later process can LoadIndex
// instead of re-hashing the corpus. Snapshots cover one shard.
func (s *System) SaveIndex(w io.Writer) error {
	if len(s.shards) != 1 {
		return errSnapshotOneShard
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	ix := s.shards[0].Index()
	if ix == nil {
		return errors.New("thetis: no index built")
	}
	return ix.Write(w)
}

// LoadIndex installs an LSEI snapshot previously written by SaveIndex. The
// snapshot must match the currently selected similarity (type snapshots
// for type similarity, embedding snapshots for embedding similarity) and
// the corpus it was built over. A snapshot damaged in any way — flipped
// bytes, truncation — fails with atomicio.ErrCorruptSnapshot and leaves
// the previously active index (if any) in place.
func (s *System) LoadIndex(r io.Reader) error {
	s.mustEngine()
	if len(s.shards) != 1 {
		return errSnapshotOneShard
	}
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	sh := s.shards[0]
	if s.embeddingSim() {
		x, err := core.LoadEmbeddingLSEI(sh.Lake(), s.ec, r)
		if err != nil {
			return err
		}
		s.indexCfg, s.typeFilter, s.filterState = x.Config(), nil, nil
		sh.SetIndex(x)
		return nil
	}
	x, err := core.LoadTypeLSEI(sh.Lake(), s.tj, r)
	if err != nil {
		return err
	}
	// Adopt the snapshot's filter map as live mutation state so later
	// AddTable/RemoveTable keep filter and signatures in lockstep.
	s.indexCfg, s.typeFilter = x.Config(), x.TypeFilter()
	s.filterState = core.ResumeTypeFilterState(x.TypeFilter(), s.lakes, s.tj, thresholdOf(x.Config()), x)
	sh.SetIndex(x)
	return nil
}

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

// SearchStats is Search returning aggregated statistics as well: per-shard
// counters sum, Truncated ORs across shards, TotalTime is the slowest
// shard's engine time (the quantity of the paper's Table 3), and the Trace
// carries every shard's scatter leg and stages labeled with its shard —
// probe and vote when an index is built, then mapping/score/rank — plus the
// coordinator's merge stage; Trace.Total spans everything.
//
// When the prefilter yields no candidates on any shard (e.g. every query
// entity's types were dropped by the frequent-type filter), the search
// rescatters as a full scan rather than silently returning nothing.
func (s *System) SearchStats(q Query, k int) ([]Result, SearchStats) {
	return s.SearchStatsContext(context.Background(), q, k)
}

// SearchStatsContext is SearchStats honoring cancellation and deadlines.
// Every scatter leg shares ctx; when it dies mid-search the results are a
// best-effort, correctly ranked subset and Stats.Truncated is set —
// graceful degradation, not an error. In coordinator mode failed remote
// legs additionally surface in Stats.ShardErrors.
func (s *System) SearchStatsContext(ctx context.Context, q Query, k int) ([]Result, SearchStats) {
	s.mustEngine()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.coord.Search(ctx, q, k)
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
	for gid := range s.owner {
		if t := s.tableLocked(TableID(gid)); t != nil {
			kw.Add(int32(gid), bm25.TableText(t))
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
	sem, _ := s.coord.Search(ctx, q, k)
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
// coverage) across all shards; an entity mentioned on two shards counts
// once, like in one lake.
func (s *System) Stats() lake.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := lake.Stats{Tables: s.live, DistinctEntities: len(s.distinctEntitiesLocked())}
	if st.Tables == 0 {
		return st
	}
	var rows, cols, cov float64
	for _, l := range s.lakes {
		for _, t := range l.Tables() {
			if t == nil {
				continue
			}
			rows += float64(t.NumRows())
			cols += float64(t.NumColumns())
			cov += t.LinkCoverage()
		}
	}
	n := float64(st.Tables)
	st.MeanRows, st.MeanColumns, st.MeanCoverage = rows/n, cols/n, cov/n
	return st
}

// distinctEntitiesLocked unions the entities mentioned on any shard.
func (s *System) distinctEntitiesLocked() []EntityID {
	seen := make(map[EntityID]struct{})
	var out []EntityID
	for _, l := range s.lakes {
		for _, e := range l.DistinctEntities() {
			if _, dup := seen[e]; !dup {
				seen[e] = struct{}{}
				out = append(out, e)
			}
		}
	}
	return out
}

var errNoEmbeddings = errors.New("thetis: no embeddings trained or loaded")

// engine returns shard 0's scoring engine — nil until a similarity is
// selected. Every shard's engine carries the same similarity, knobs, and
// global informativeness, so any one speaks for all.
func (s *System) engine() *core.Engine { return s.shards[0].Engine() }

// embeddingSim reports whether the selected similarity is the embedding
// cosine, which indexes via hyperplane LSH instead of MinHash.
func (s *System) embeddingSim() bool { return s.ec != nil }

func (s *System) mustEngine() {
	if s.engine() == nil {
		panic("thetis: select a similarity first (UseTypeSimilarity or UseEmbeddingSimilarity)")
	}
}

func (s *System) mustKeyword() {
	if s.keyword == nil {
		panic("thetis: BuildKeywordIndex before keyword/hybrid search")
	}
}
