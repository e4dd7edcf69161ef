package thetis

// ANN serving layer (docs/ANN.md): top-k σ scoring over a pure-Go HNSW
// graph (internal/embedding). EnableAnnTopK builds the graph from the
// trained embedding store and switches the engines into Engine.SigmaTopK
// mode; exact scoring stays the default and is bit-identical whenever the
// mode is off. The graph indexes the embedding store, not the corpus, so
// AddTable/RemoveTable never touch it; re-selecting σ drops it with every
// other σ-derived structure (installEngines).

import (
	"errors"
	"time"

	"thetis/internal/core"
	"thetis/internal/embedding"
	"thetis/internal/obs"
)

var errAnnNeedsEmbeddings = errors.New("thetis: EnableAnnTopK requires UseEmbeddingSimilarity")

var (
	mAnnGraphNodes   = obs.AnnGraphNodes(nil)
	mAnnBuildSeconds = obs.AnnBuildSeconds(nil)
)

// AnnStatus reports the ANN serving state (the /debug/ann endpoint).
type AnnStatus struct {
	// Enabled reports that the engines score through the graph.
	Enabled    bool `json:"enabled"`
	TopK       int  `json:"top_k"`
	EfSearch   int  `json:"ef_search"`
	GraphNodes int  `json:"graph_nodes"`
}

// EnableAnnTopK switches embedding σ to approximate top-k mode: the query
// resolves a pooled candidate set — the union of each query entity's k
// nearest store entities through an HNSW graph — scores exact cosine inside
// it and 0 against everything else (docs/ANN.md). ef is the search beam
// width (0 uses the default, 64). One graph is built over the shared
// embedding store, synchronously here, and every shard engine scores
// through it; call after UseEmbeddingSimilarity, alongside the other
// setup-time configuration.
func (s *System) EnableAnnTopK(k, ef int) error {
	if k <= 0 {
		return errors.New("thetis: EnableAnnTopK needs k > 0")
	}
	if !s.embeddingSim() {
		return errAnnNeedsEmbeddings
	}
	cfg := embedding.DefaultHNSWConfig()
	if ef > 0 {
		cfg.EfSearch = ef
	}
	t0 := time.Now()
	ix := embedding.BuildHNSW(s.store, cfg)
	mAnnBuildSeconds.Set(time.Since(t0).Seconds())
	mAnnGraphNodes.Set(float64(ix.Len()))
	s.ann, s.annEf = ix, cfg.EfSearch
	s.eachEngine(func(e *core.Engine) { e.SigmaTopK, e.Ann = k, ix })
	return nil
}

// AnnStatus reports the current ANN serving state, read off the engines.
func (s *System) AnnStatus() AnnStatus {
	eng := s.engine()
	if eng == nil || eng.SigmaTopK == 0 {
		return AnnStatus{}
	}
	return AnnStatus{Enabled: true, TopK: eng.SigmaTopK, EfSearch: s.annEf, GraphNodes: s.ann.Len()}
}
