// Package reference assembles Algorithm 1 straight from internal/core over
// one lake — one core.Engine, an optional LSEI with the single-node
// full-scan fallback, an optional BM25 index — with no shards, coordinator,
// locks, or facade in between. It is the independent side of the
// differential batteries: thetis.System at every shard count, in
// coordinator mode, after live mutation, in batches and with its caches on
// must rank bit-for-bit like this, so the tests never compare the serving
// path with itself.
package reference

import (
	"context"

	"thetis/internal/bm25"
	"thetis/internal/core"
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/table"
)

// Reference is one lake with its hand-wired search pipeline. Tests set the
// engine's knobs (Agg, Mode, Mapping, Parallelism), Votes,
// and the optional indexes (core.BuildTypeLSEI / core.BuildEmbeddingLSEI /
// bm25.IndexLake over Lake) directly.
type Reference struct {
	Lake    *lake.Lake
	Engine  *core.Engine
	Index   *core.LSEI // nil scores the whole lake
	Votes   int
	Keyword *bm25.Index // needed by KeywordSearch and HybridSearch
}

// New ingests tables, in order, into a fresh lake over g — table i gets ID
// i — and scores them with sim under the lake's own IDF informativeness.
func New(g *kg.Graph, tables []*table.Table, sim core.Similarity) *Reference {
	l := lake.New(g)
	for _, t := range tables {
		l.Add(t)
	}
	return &Reference{Lake: l, Engine: core.NewEngine(l, sim), Votes: 1}
}

// Search is the single-node pipeline: prefilter when an index is built,
// full scan when it leaves no candidates, score, rank.
func (r *Reference) Search(q core.Query, k int) ([]core.Result, core.Stats) {
	return core.SearchWithIndex(context.Background(), r.Engine, r.Index, r.Votes, q, k, core.FallbackFullScan)
}

// KeywordSearch returns the BM25 top-k table IDs.
func (r *Reference) KeywordSearch(text string, k int) []lake.TableID {
	hits := r.Keyword.Search(text, k)
	out := make([]lake.TableID, len(hits))
	for i, h := range hits {
		out[i] = lake.TableID(h.Doc)
	}
	return out
}

// HybridSearch complements the BM25 ranking with the semantic one
// (core.Complement over the two top-k lists).
func (r *Reference) HybridSearch(q core.Query, keywords string, k int) []lake.TableID {
	sem, _ := r.Search(q, k)
	semIDs := make([]int, len(sem))
	for i, res := range sem {
		semIDs[i] = int(res.Table)
	}
	var bmIDs []int
	for _, id := range r.KeywordSearch(keywords, k) {
		bmIDs = append(bmIDs, int(id))
	}
	var out []lake.TableID
	for _, id := range core.Complement(semIDs, bmIDs, k) {
		out = append(out, lake.TableID(id))
	}
	return out
}
