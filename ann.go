package thetis

// ANN serving layer (docs/ANN.md): top-k σ scoring over a pure-Go HNSW
// graph (internal/embedding). EnableAnnTopK builds the graph from the
// trained embedding store and switches the engine into Engine.SigmaTopK
// mode; exact scoring stays the default and is bit-identical whenever the
// mode is off. The graph is epoch-checked like every other index
// (docs/LIVE_INDEX.md): a corpus mutation bumps the lake epoch, searches
// notice the stale graph, serve exact σ (counted on
// thetis_ann_fallbacks_total), and a single background rebuild hot-swaps a
// fresh graph in — the same build-aside pattern the LSEI uses.

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

// annState pairs an immutable HNSW graph with the corpus epoch it was
// built at. Searches hot-load it through an atomic pointer.
type annState struct {
	ix    *embedding.HNSW
	epoch uint64
}

// AnnStatus reports the ANN serving state (the /debug/ann endpoint).
type AnnStatus struct {
	Enabled    bool   `json:"enabled"`
	TopK       int    `json:"top_k"`
	EfSearch   int    `json:"ef_search"`
	GraphNodes int    `json:"graph_nodes"`
	BuiltEpoch uint64 `json:"built_epoch"`
	Epoch      uint64 `json:"epoch"`
	// Current is false while the graph trails the corpus epoch — searches
	// are falling back to exact σ until the background rebuild lands.
	Current bool `json:"current"`
}

// buildAnnState builds an HNSW graph over store with the default
// parameters and the given search beam, stamping it with epoch and
// updating the build metrics.
func buildAnnState(store *embedding.Store, ef int, epoch uint64) *annState {
	cfg := embedding.DefaultHNSWConfig()
	cfg.EfSearch = ef
	t0 := time.Now()
	ix := embedding.BuildHNSW(store, cfg)
	mAnnBuildSeconds.Set(time.Since(t0).Seconds())
	mAnnGraphNodes.Set(float64(ix.Len()))
	return &annState{ix: ix, epoch: epoch}
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
	if ef <= 0 {
		ef = embedding.DefaultHNSWConfig().EfSearch
	}
	if s.store == nil || !s.embeddingSim() {
		return errAnnNeedsEmbeddings
	}
	s.annTopK, s.annEf = k, ef
	s.ann.Store(buildAnnState(s.store, ef, s.epoch.Load()))
	s.eachEngine(func(e *core.Engine) { e.SigmaTopK, e.Ann = k, s.annIndex })
	return nil
}

// DisableAnnTopK returns the engines to exact σ scoring and drops the
// graph.
func (s *System) DisableAnnTopK() {
	s.annTopK, s.annEf = 0, 0
	s.ann.Store(nil)
	for _, sh := range s.shards {
		if eng := sh.Engine(); eng != nil {
			eng.SigmaTopK = 0
			eng.Ann = nil
		}
	}
}

// annIndex is the engines' AnnSource: the current graph when it matches
// the corpus epoch, or nil — exact-σ fallback — while a rebuild is in
// flight.
func (s *System) annIndex() core.AnnIndex {
	st := s.ann.Load()
	if st == nil {
		return nil
	}
	if epoch := s.epoch.Load(); st.epoch != epoch {
		s.kickAnnRebuild(epoch)
		return nil
	}
	return st.ix
}

// kickAnnRebuild starts a single-flight background rebuild stamped with
// the observed epoch. If the corpus moves again mid-build the next search
// notices the stale stamp and kicks another rebuild — convergent, never
// blocking the search path.
func (s *System) kickAnnRebuild(epoch uint64) {
	if !s.annBuilding.CompareAndSwap(false, true) {
		return
	}
	store, ef := s.store, s.annEf
	go func() {
		defer s.annBuilding.Store(false)
		s.ann.Store(buildAnnState(store, ef, epoch))
	}()
}

// AnnStatus reports the current ANN serving state.
func (s *System) AnnStatus() AnnStatus {
	st := s.ann.Load()
	out := AnnStatus{Enabled: s.annTopK > 0, TopK: s.annTopK, EfSearch: s.annEf, Epoch: s.epoch.Load()}
	if st != nil {
		out.GraphNodes = st.ix.Len()
		out.BuiltEpoch = st.epoch
		out.Current = st.epoch == out.Epoch
	}
	return out
}
