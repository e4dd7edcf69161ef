// Package reference is the independent side of the differential batteries:
// one lake, an optional LSEI with the single-node full-scan fallback and an
// optional BM25 index, with every candidate scored by internal/oracle — no
// engine, shards, coordinator, locks or facade in between. thetis.System
// locally, in coordinator mode over 1, 2 and 4 remote shards, after live
// mutation and in batches must rank like it under the oracle's comparison
// rule (Agree), so the batteries never compare the served scorer with
// itself.
//
// The reference scores each table under the oracle's own µ, so it applies
// the rule without its tie clause: it assumes no query tuple of a battery
// corpus has two assignments that tie on the µ objective. Where one does,
// the engine, which sums S in another order, may pick the other µ and a
// correct System can fail a battery under MAX.
package reference

import (
	"fmt"

	"thetis/internal/bm25"
	"thetis/internal/core"
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/oracle"
	"thetis/internal/table"
)

// Reference is one lake with its hand-wired search pipeline. Tests set Agg,
// Votes and the optional indexes (core.BuildTypeLSEI /
// core.BuildEmbeddingLSEI / bm25.IndexLake over Lake) directly. The lake and
// σ must not change after New. A copy of a Reference shares its lake and
// its rankings, and has indexes and settings of its own. A Reference is not
// safe for concurrent use.
type Reference struct {
	Lake    *lake.Lake
	Sim     core.Similarity
	Agg     core.Aggregation
	Index   *core.LSEI // nil scores the whole lake
	Votes   int
	Keyword *bm25.Index // needed by KeywordSearch and HybridSearch

	ranked map[string][]core.Result // the oracle's ranking of the lake, by aggregation and query
}

// New ingests tables, in order, into a fresh lake over g — table i gets ID
// i — to be scored with sim under the lake's own IDF informativeness and
// MAX aggregation.
func New(g *kg.Graph, tables []*table.Table, sim core.Similarity) *Reference {
	l := lake.New(g)
	for _, t := range tables {
		l.Add(t)
	}
	return &Reference{Lake: l, Sim: sim, Votes: 1, ranked: map[string][]core.Result{}}
}

// Search is the single-node pipeline: the prefilter's candidates when an
// index is built and it leaves any, the whole lake otherwise, in the
// oracle's order, cut at k (k < 0 keeps it all). A table's score does not
// depend on the other candidates, so the oracle ranks the whole lake once
// per query and aggregation and a prefiltered search keeps the candidates
// of that ranking.
func (r *Reference) Search(q core.Query, k int) []core.Result {
	key := fmt.Sprint(r.Agg, q)
	ranked, ok := r.ranked[key]
	if !ok {
		c := oracle.Config{Sim: r.Sim, Weight: core.IDFInformativeness(r.Lake), Avg: r.Agg == core.AggregateAvg}
		for _, t := range c.Rank(r.Lake, oracle.Tuples(q)) {
			ranked = append(ranked, core.Result{Table: t.Table, Score: t.Score})
		}
		r.ranked[key] = ranked
	}
	var keep map[lake.TableID]bool // nil keeps every table
	if r.Index != nil {
		for _, tid := range r.Index.Candidates(q, r.Votes) {
			if keep == nil {
				keep = map[lake.TableID]bool{}
			}
			keep[tid] = true
		}
	}
	var out []core.Result
	for _, res := range ranked {
		if (keep == nil || keep[res.Table]) && (k < 0 || len(out) < k) {
			out = append(out, res)
		}
	}
	return out
}

// Agree checks that got is the top k (k < 0: all) of full, the
// reference's complete ranking of the same query, under the oracle's
// comparison rule (oracle.AgreeRanking) for the reference's aggregation. It
// returns the first difference, or nil.
func (r *Reference) Agree(got, full []core.Result, k int) error {
	return oracle.AgreeRanking(r.Agg == core.AggregateAvg, ranked(got), ranked(full), k)
}

func ranked(rs []core.Result) []oracle.Ranked {
	out := make([]oracle.Ranked, len(rs))
	for i, res := range rs {
		out[i] = oracle.Ranked{Table: res.Table, Score: res.Score}
	}
	return out
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
	sem := r.Search(q, k)
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
