package core

// Top-k σ: an approximate embedding-similarity mode that makes first-touch
// σ cost sublinear in the entity store (ISSUE 8, docs/ANN.md). Instead of
// an exact cosine against every corpus entity, each query entity resolves
// its k nearest store entities once per search through an ANN index
// (embedding.HNSW); pairs outside the neighborhood score σ = 0, pairs
// inside score the exact clamped cosine, so in-neighborhood values are
// bit-identical to exact mode. The mode is off by default
// (Engine.SigmaTopK = 0) and exact scoring stays bit-identical when it is
// off — the differential harness (`benchrunner -exp ann`) measures what
// turning it on trades away.

import (
	"time"

	"thetis/internal/embedding"
	"thetis/internal/kg"
	"thetis/internal/obs"
)

// AnnIndex is the approximate nearest-neighbor source for top-k σ:
// embedding.HNSW implements it. Implementations must be safe for
// concurrent TopK calls and deterministic for a fixed graph.
type AnnIndex interface {
	TopK(vec embedding.Vector, k int) []embedding.Neighbor
}

var (
	mAnnQueries = obs.AnnQueriesTotal()
	mStageAnn   = obs.SearchStageSeconds("ann")
)

// topKSigma is the per-search neighborhood similarity. The neighborhood is
// pooled: the candidate set is the union of every query entity's k-nearest
// store entities (plus the query entities themselves), and every
// (query entity, candidate) pair scores the exact clamped cosine — because
// a table reached through one query entity's neighborhood is scored
// against all of them, per-entity neighborhoods would zero the
// cross-entity σ values the column mapping depends on. Neighborhoods are
// resolved once, before scoring workers start, and read-only afterwards —
// which is what keeps rankings identical across Parallelism settings and
// lets the query-scoped SigmaCache memoize it like any other σ.
type topKSigma struct {
	exact *EmbeddingCosine
	// hood[qe][e] is the exact σ(qe, e) for e in the pooled candidate set;
	// entities absent from the inner map score 0. Query entities without
	// an embedding get an empty (non-nil) map: everything but themselves
	// scores 0, matching exact mode, which also scores 0 for them.
	hood map[kg.EntityID]map[kg.EntityID]float64
	// neighbors is the total resolved neighborhood size (trace items).
	neighbors int
}

// Score implements Similarity. a is a query entity on every search-path
// call (scorers always pass (query entity, cell entity)); a query entity
// missing from hood means the caller bypassed resolution, and the exact
// score keeps the contract rather than silently zeroing.
func (t *topKSigma) Score(a, b kg.EntityID) float64 {
	if a == b {
		return 1
	}
	m, ok := t.hood[a]
	if !ok {
		return t.exact.Score(a, b)
	}
	return m[b]
}

// newTopKSigma resolves the query's neighborhoods through eng.Ann.
func (eng *Engine) newTopKSigma(q Query, ec *EmbeddingCosine) *topKSigma {
	t := &topKSigma{exact: ec, hood: make(map[kg.EntityID]map[kg.EntityID]float64)}
	distinct := q.DistinctEntities()
	pool := make(map[kg.EntityID]bool, len(distinct)*eng.SigmaTopK)
	for _, qe := range distinct {
		pool[qe] = true
		if v := ec.Vector(qe); v != nil {
			for _, nb := range eng.Ann.TopK(v, eng.SigmaTopK) {
				pool[nb.ID] = true
			}
		}
	}
	for _, qe := range distinct {
		m := map[kg.EntityID]float64{}
		if ec.Vector(qe) != nil {
			for e := range pool {
				if e == qe {
					continue // σ(e,e) = 1 is handled identically in Score
				}
				if s := ec.Score(qe, e); s > 0 {
					m[e] = s
				}
			}
		}
		t.hood[qe] = m
		t.neighbors += len(m)
	}
	return t
}

// searchSim returns the σ this search scores with — the engine's exact σ,
// or, when the mode is on (SigmaTopK > 0 with an index over an embedding
// cosine), a freshly resolved top-k σ, recording the ann trace stage and
// the query metric. Exact-mode traces carry no ann stage.
func (eng *Engine) searchSim(q Query, tr *obs.Trace) Similarity {
	ec, ok := eng.Sim.(*EmbeddingCosine)
	if eng.SigmaTopK <= 0 || eng.Ann == nil || !ok {
		return eng.Sim
	}
	start := time.Now()
	t := eng.newTopKSigma(q, ec)
	d := time.Since(start)
	mStageAnn.Observe(d.Seconds())
	if tr != nil {
		tr.Add(obs.Stage{Name: "ann", Wall: d, Items: t.neighbors})
	}
	mAnnQueries.Inc()
	return t
}
