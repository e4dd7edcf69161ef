// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7) over synthetic semantic-data-lake benchmarks. One
// runner exists per artifact — Table 2, Figures 4–6, Tables 3–4, and the
// in-prose ablations — each returning a typed result that renders the same
// rows/series the paper reports.
package experiments

import (
	"fmt"
	"io"

	"thetis/internal/bm25"
	"thetis/internal/core"
	"thetis/internal/datagen"
	"thetis/internal/embedding"
	"thetis/internal/lake"
)

// Config sizes a benchmark environment. The paper's corpora span 238K–1.7M
// tables; defaults here are scaled to a laptop/CI budget while keeping the
// per-experiment *shape* intact. Increase Tables/Queries to approach the
// paper's scale.
type Config struct {
	// Tables is the WT2015-profile corpus size.
	Tables int
	// Queries is the number of benchmark queries (the paper uses 50 1-tuple
	// + 50 5-tuple queries).
	Queries int
	// KG controls the synthetic knowledge graph.
	KG datagen.KGConfig
	// Walks and Train control embedding training.
	Walks embedding.WalkConfig
	Train embedding.TrainConfig
	// Seed drives query sampling.
	Seed int64
}

// DefaultConfig returns the standard experiment environment: a 4,000-table
// WT2015-profile corpus with 25 query topics.
func DefaultConfig() Config {
	return Config{
		Tables:  4000,
		Queries: 25,
		KG:      datagen.DefaultKGConfig(),
		Walks:   embedding.DefaultWalkConfig(),
		Train:   embedding.DefaultTrainConfig(),
		Seed:    42,
	}
}

// SmallConfig returns a fast environment for tests. It is sized so that
// the top-100/200 recall cutoffs of Figure 5 stay meaningful (well under
// the corpus size).
func SmallConfig() Config {
	return Config{
		Tables:  1500,
		Queries: 10,
		KG: datagen.KGConfig{
			Domains: 6, LeafTypesPerDomain: 2, MembersPerLeafType: 80,
			GroupsPerDomain: 10, Places: 40, EdgesPerMember: 2, Seed: 5,
		},
		Walks: embedding.WalkConfig{WalksPerEntity: 6, Length: 6, Undirected: true, Seed: 5},
		Train: embedding.TrainConfig{Dim: 24, Window: 3, Negatives: 4, Epochs: 2, LearningRate: 0.03, Seed: 5},
		Seed:  5,
	}
}

// Env is a fully materialized benchmark environment shared by the
// experiment runners: KG, corpus, embeddings, similarity functions, BM25
// index, and 1-/5-tuple query sets with ground truth.
type Env struct {
	Config Config
	KG     *datagen.KG
	Lake   *lake.Lake

	Store *embedding.Store
	TJ    *core.TypeJaccard
	EC    *core.EmbeddingCosine
	BM25  *bm25.Index

	// Queries5 are the generated 5-tuple queries; Queries1 are their
	// 1-tuple prefixes (the paper's containment property).
	Queries1 []datagen.BenchmarkQuery
	Queries5 []datagen.BenchmarkQuery
	// GT holds ground truth per query name (shared by both sizes).
	GT map[string]datagen.GroundTruth
}

// NewEnv generates the KG, corpus, embeddings, indexes, queries, and ground
// truth. Progress lines go to w when non-nil.
func NewEnv(cfg Config, w io.Writer) *Env {
	logf := func(format string, args ...any) {
		if w != nil {
			fmt.Fprintf(w, format+"\n", args...)
		}
	}
	env := &Env{Config: cfg}
	logf("generating knowledge graph…")
	env.KG = datagen.GenerateKG(cfg.KG)
	logf("  %s", env.KG.Graph)

	logf("generating %d-table WT2015-profile corpus…", cfg.Tables)
	env.Lake = datagen.GenerateCorpus(env.KG, datagen.ProfileWT2015(cfg.Tables))
	logf("  %s", env.Lake.ComputeStats())

	logf("training embeddings (RDF2Vec substitute)…")
	env.Store = embedding.TrainGraph(env.KG.Graph, cfg.Walks, cfg.Train)
	logf("  %d vectors, dim %d", env.Store.Len(), env.Store.Dim())

	env.TJ = core.NewTypeJaccard(env.KG.Graph)
	env.EC = core.NewEmbeddingCosine(env.KG.Graph, env.Store)

	logf("building BM25 index…")
	env.BM25 = bm25.IndexLake(env.Lake)

	logf("sampling %d queries + ground truth…", cfg.Queries)
	env.Queries5 = datagen.GenerateQueries(env.KG, datagen.QueryConfig{
		Count: cfg.Queries, TuplesPerQuery: 5, Width: 3, Seed: cfg.Seed,
	})
	env.Queries1 = make([]datagen.BenchmarkQuery, len(env.Queries5))
	env.GT = make(map[string]datagen.GroundTruth, len(env.Queries5))
	for i, q := range env.Queries5 {
		env.Queries1[i] = q.Truncate(1)
		env.GT[q.Name] = datagen.BuildGroundTruth(env.Lake, q)
	}
	logf("environment ready")
	return env
}

// NewEnvFromBenchmark builds an environment from a benchmark directory
// written by datagen.WriteBenchmark (kg.nt, corpus.jsonl, queries.json)
// instead of generating fresh data, so experiments replay on a fixed
// corpus. Embedding training and index construction still follow cfg.
func NewEnvFromBenchmark(dir string, cfg Config, w io.Writer) (*Env, error) {
	logf := func(format string, args ...any) {
		if w != nil {
			fmt.Fprintf(w, format+"\n", args...)
		}
	}
	logf("loading benchmark from %s…", dir)
	g, l, queries, err := datagen.LoadBenchmark(dir)
	if err != nil {
		return nil, err
	}
	env := &Env{Config: cfg}
	env.Config.Tables = l.NumTables()
	env.Config.Queries = len(queries)
	env.KG = &datagen.KG{Graph: g}
	env.Lake = l
	logf("  %s", l.ComputeStats())

	logf("training embeddings (RDF2Vec substitute)…")
	env.Store = embedding.TrainGraph(g, cfg.Walks, cfg.Train)
	env.TJ = core.NewTypeJaccard(g)
	env.EC = core.NewEmbeddingCosine(g, env.Store)
	logf("building BM25 index…")
	env.BM25 = bm25.IndexLake(l)

	env.Queries5 = queries
	env.Queries1 = make([]datagen.BenchmarkQuery, len(queries))
	env.GT = make(map[string]datagen.GroundTruth, len(queries))
	for i, q := range queries {
		env.Queries1[i] = q.Truncate(1)
		env.GT[q.Name] = datagen.BuildGroundTruth(l, q)
	}
	logf("environment ready")
	return env, nil
}

// CanGenerate reports whether the environment carries the synthetic
// generator's domain structure. Environments replayed from a benchmark
// directory cannot generate additional corpora, so the experiments that
// build extra profiles (Table 2's other rows, WT2019, GitTables) degrade
// to the loaded corpus.
func (e *Env) CanGenerate() bool { return len(e.KG.Domains) > 0 }

// QuerySet selects the 1- or 5-tuple benchmark queries.
func (e *Env) QuerySet(tuples int) []datagen.BenchmarkQuery {
	if tuples <= 1 {
		return e.Queries1
	}
	return e.Queries5
}

// EngineTypes returns a fresh engine configured with type-Jaccard σ (STST).
func (e *Env) EngineTypes() *core.Engine { return core.NewEngine(e.Lake, e.TJ) }

// EngineEmbeddings returns a fresh engine with embedding-cosine σ (STSE).
func (e *Env) EngineEmbeddings() *core.Engine { return core.NewEngine(e.Lake, e.EC) }
