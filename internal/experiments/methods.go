package experiments

import (
	"fmt"

	"thetis/internal/baselines"
	"thetis/internal/core"
	"thetis/internal/datagen"
)

// SimKind selects the entity similarity σ.
type SimKind int

const (
	// SimTypes is the adjusted type-Jaccard similarity (STST).
	SimTypes SimKind = iota
	// SimEmbeddings is the embedding-cosine similarity (STSE).
	SimEmbeddings
)

// String implements fmt.Stringer, using the paper's T/E shorthand.
func (s SimKind) String() string {
	if s == SimEmbeddings {
		return "E"
	}
	return "T"
}

// Runner is one search method under evaluation: it maps a benchmark query
// to a ranked table-ID list plus search statistics.
type Runner struct {
	Name   string
	Search func(bq datagen.BenchmarkQuery, k int) ([]int, core.Stats)
}

// Methods builds and caches the search methods of the evaluation over one
// environment. LSEI indexes are built lazily and memoized per
// configuration.
type Methods struct {
	env    *Env
	lseis  map[string]*core.LSEI
	turl   *baselines.TURLRanker
	union  *baselines.UnionSearcher
	unionE *baselines.EmbeddingUnionSearcher
	join   *baselines.JoinSearcher
}

// NewMethods creates the method registry for env.
func NewMethods(env *Env) *Methods {
	return &Methods{env: env, lseis: make(map[string]*core.LSEI)}
}

func (m *Methods) engine(kind SimKind) *core.Engine {
	if kind == SimEmbeddings {
		return m.env.EngineEmbeddings()
	}
	return m.env.EngineTypes()
}

// SemanticBrute is exact semantic table search without prefiltering (the
// STST/STSE bars of Figure 4).
func (m *Methods) SemanticBrute(kind SimKind) Runner {
	name := "STST"
	if kind == SimEmbeddings {
		name = "STSE"
	}
	eng := m.engine(kind)
	return Runner{
		Name: name,
		Search: func(bq datagen.BenchmarkQuery, k int) ([]int, core.Stats) {
			res, stats := eng.Search(bq.Query, k)
			return core.RankedTables(res), stats
		},
	}
}

// LSEI returns the (lazily built) prefilter index for a kind/config pair.
func (m *Methods) LSEI(kind SimKind, cfg core.LSEIConfig) *core.LSEI {
	key := fmt.Sprintf("%v-%d-%d", kind, cfg.Vectors, cfg.BandSize)
	if x, ok := m.lseis[key]; ok {
		return x
	}
	var x *core.LSEI
	if kind == SimEmbeddings {
		x = core.BuildEmbeddingLSEI(m.env.Lake, m.env.EC, m.env.Store.Dim(), cfg)
	} else {
		x = core.BuildTypeLSEI(m.env.Lake, m.env.TJ, cfg)
	}
	m.lseis[key] = x
	return x
}

// SemanticLSH is semantic search with LSEI prefiltering, named in the
// paper's notation, e.g. "T(30,10)" with a vote threshold.
func (m *Methods) SemanticLSH(kind SimKind, cfg core.LSEIConfig, votes int) Runner {
	eng := m.engine(kind)
	x := m.LSEI(kind, cfg)
	return Runner{
		Name: fmt.Sprintf("%v(%d,%d)", kind, cfg.Vectors, cfg.BandSize),
		Search: func(bq datagen.BenchmarkQuery, k int) ([]int, core.Stats) {
			cands := x.Candidates(bq.Query, votes)
			res, stats := eng.SearchCandidates(bq.Query, cands, k)
			return core.RankedTables(res), stats
		},
	}
}

// BM25Text is keyword search over the textual content of the query tuples.
func (m *Methods) BM25Text() Runner {
	return Runner{
		Name: "BM25text",
		Search: func(bq datagen.BenchmarkQuery, k int) ([]int, core.Stats) {
			res := m.env.BM25.Search(bq.KeywordQuery(m.env.KG.Graph), k)
			out := make([]int, len(res))
			for i, r := range res {
				out[i] = int(r.Doc)
			}
			return out, core.Stats{Candidates: m.env.BM25.NumDocs(), Scored: len(out)}
		},
	}
}

// TURL is the pooled table-embedding baseline.
func (m *Methods) TURL() Runner {
	if m.turl == nil {
		m.turl = baselines.NewTURLRanker(m.env.Lake, m.env.Store)
	}
	return Runner{
		Name: "TURL",
		Search: func(bq datagen.BenchmarkQuery, k int) ([]int, core.Stats) {
			res := m.turl.Search(bq.Query, k)
			return core.RankedTables(res), core.Stats{Scored: len(res)}
		},
	}
}

// UnionSearch is the Starmie/SANTOS-style union-search baseline.
func (m *Methods) UnionSearch() Runner {
	if m.union == nil {
		m.union = baselines.NewUnionSearcher(m.env.Lake, m.env.TJ)
	}
	return Runner{
		Name: "Union",
		Search: func(bq datagen.BenchmarkQuery, k int) ([]int, core.Stats) {
			res := m.union.Search(bq.Query, k)
			return core.RankedTables(res), core.Stats{Scored: len(res)}
		},
	}
}

// StarmieUnion is the Starmie-style union-search baseline (embedding
// column encoders instead of type signatures).
func (m *Methods) StarmieUnion() Runner {
	if m.unionE == nil {
		m.unionE = baselines.NewEmbeddingUnionSearcher(m.env.Lake, m.env.EC)
	}
	return Runner{
		Name: "UnionE",
		Search: func(bq datagen.BenchmarkQuery, k int) ([]int, core.Stats) {
			res := m.unionE.Search(bq.Query, k)
			return core.RankedTables(res), core.Stats{Scored: len(res)}
		},
	}
}

// JoinSearch is the D³L-style joinability baseline.
func (m *Methods) JoinSearch() Runner {
	if m.join == nil {
		m.join = baselines.NewJoinSearcher(m.env.Lake)
	}
	return Runner{
		Name: "Join",
		Search: func(bq datagen.BenchmarkQuery, k int) ([]int, core.Stats) {
			res := m.join.Search(bq.Query, k)
			return core.RankedTables(res), core.Stats{Scored: len(res)}
		},
	}
}

// Complemented merges a semantic runner with BM25 (the STSTC/STSEC
// combination of Section 7.2: top half of each result set).
func (m *Methods) Complemented(sem Runner) Runner {
	bm := m.BM25Text()
	return Runner{
		Name: sem.Name + "C",
		Search: func(bq datagen.BenchmarkQuery, k int) ([]int, core.Stats) {
			semRanked, stats := sem.Search(bq, k)
			bmRanked, _ := bm.Search(bq, k)
			return core.Complement(semRanked, bmRanked, k), stats
		},
	}
}

// PaperLSHConfigs returns the three LSH configurations the paper sweeps.
func PaperLSHConfigs() []core.LSEIConfig {
	return []core.LSEIConfig{
		{Vectors: 32, BandSize: 8, Seed: 1},
		{Vectors: 128, BandSize: 8, Seed: 1},
		{Vectors: 30, BandSize: 10, Seed: 1},
	}
}
