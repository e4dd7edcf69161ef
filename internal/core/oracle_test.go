package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"thetis/internal/hungarian"
	"thetis/internal/lake"
	"thetis/internal/oracle"
	"thetis/internal/table"
)

// The engine answers to internal/oracle under the comparison rule stated in
// that package (oracle.Agree, oracle.AgreeRanking); where the engine's µ
// ties the oracle's on the objective, the oracle scores the engine's µ.

// oracleOf is the oracle's reading of an engine configuration.
func oracleOf(sim Similarity, inf Informativeness, agg Aggregation) oracle.Config {
	return oracle.Config{Sim: sim, Weight: inf, Avg: agg == AggregateAvg}
}

// oracleScore is the score the oracle expects of a scorer that chose
// assignment (one µ per tuple) for tb: the oracle's score of that µ when it
// is optimal on the oracle's own S (within 1e-9: the two sides sum S in
// different orders) — the oracle's own µ, or one that ties it — and the
// oracle's own score otherwise, which then differs.
func oracleScore(c oracle.Config, q Query, tb *table.Table, assignment [][]int) float64 {
	oq := oracle.Tuples(q)
	want, mu := c.Score(tb, oq)
	for ti, tq := range oq {
		S := c.Matrix(tb, tq)
		if math.Abs(hungarian.TotalScore(S, assignment[ti])-hungarian.TotalScore(S, mu[ti])) > 1e-9 {
			return want
		}
	}
	return c.ScoreAssigned(tb, oq, assignment)
}

// oracleRanking is the ranking the oracle expects of eng for q over
// candidates (nil: every live table), each table scored by oracleScore
// under the µ a scorer of eng chooses for it.
func oracleRanking(eng *Engine, q Query, candidates []lake.TableID) []Result {
	if candidates == nil {
		candidates = eng.Lake.LiveTableIDs()
	}
	c := oracleOf(eng.Sim, eng.Inf, eng.Agg)
	sc := newScorer(q, eng.Inf, eng.Agg, NewSigmaCache(q, eng.Sim, eng.Lake.Graph.NumEntities()))
	var out []Result
	for _, tid := range candidates {
		tb := eng.Lake.Table(tid)
		if tb == nil || tb.NumRows() == 0 || tb.NumColumns() == 0 {
			continue
		}
		sc.scoreBare(tb)
		if s := oracleScore(c, q, tb, sc.assignment); s > 0 {
			out = append(out, Result{Table: tid, Score: s})
		}
	}
	slices.SortFunc(out, func(a, b Result) int { // the oracle's order, not compareResults
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Table, b.Table))
	})
	return out
}

// agreeWithOracle applies oracle.AgreeRanking to the engine's ranking got
// against full, the oracle's complete ranking, cut at k (k < 0: all).
func agreeWithOracle(agg Aggregation, got, full []Result, k int) error {
	ranked := func(rs []Result) []oracle.Ranked {
		out := make([]oracle.Ranked, len(rs))
		for i, res := range rs {
			out[i] = oracle.Ranked{Table: res.Table, Score: res.Score}
		}
		return out
	}
	return oracle.AgreeRanking(agg == AggregateAvg, ranked(got), ranked(full), k)
}

// matchesOracle checks eng's ranking got of q over candidates, cut at k,
// against the oracle.
func matchesOracle(eng *Engine, q Query, candidates []lake.TableID, got []Result, k int) error {
	return agreeWithOracle(eng.Agg, got, oracleRanking(eng, q, candidates), k)
}

// checkReading holds one of the oracle's ablation readings r (pairwise,
// greedy or both, over eng's σ, weights and aggregation) to what it must
// share with the engine, given eng's full ranking got of q over its lake:
//   - it ranks the same tables (a table scores above 0 exactly when some
//     tuple has a relevant mapping, whatever the reading), only in another
//     order;
//   - greedy, its µ never beats the engine's Hungarian µ on the objective,
//     and where it is the engine's µ, it scores the engine's score (entity-
//     wise) under the rule;
//   - pairwise, under the engine's µ, a one-row table scores the engine's
//     score under the rule (folding one row and folding one cell are the
//     same), and under MAX no table scores above the engine's score.
//
// σ must lie in [0, 1].
func checkReading(eng *Engine, q Query, r oracle.Config, got []Result) error {
	engine := map[lake.TableID]float64{}
	for _, res := range got {
		engine[res.Table] = res.Score
	}
	oq := oracle.Tuples(q)
	sc := newScorer(q, eng.Inf, eng.Agg, NewSigmaCache(q, eng.Sim, eng.Lake.Graph.NumEntities()))
	for _, tid := range eng.Lake.LiveTableIDs() {
		tb := eng.Lake.Table(tid)
		if tb.NumRows() == 0 || tb.NumColumns() == 0 {
			continue
		}
		sc.scoreBare(tb)
		e := engine[tid]
		a, mu := r.Score(tb, oq)
		if (a > 0) != (e > 0) {
			return fmt.Errorf("table %d: the reading scores %v, the engine %v: a reading may re-rank, not re-filter", tid, a, e)
		}
		same := true
		for ti, tq := range oq {
			S := r.Matrix(tb, tq)
			if hungarian.TotalScore(S, mu[ti]) > hungarian.TotalScore(S, sc.assignment[ti])+1e-9 {
				return fmt.Errorf("table %d tuple %d: µ %v beats the engine's Hungarian µ %v", tid, ti, mu[ti], sc.assignment[ti])
			}
			same = same && slices.Equal(mu[ti], sc.assignment[ti])
		}
		if !r.Pairwise {
			if same && !oracle.Agree(r.Avg, e, a) {
				return fmt.Errorf("table %d: the engine's own µ scores %v greedy, %v in the engine", tid, a, e)
			}
			continue
		}
		p := r.ScoreAssigned(tb, oq, sc.assignment)
		if tb.NumRows() == 1 && !oracle.Agree(r.Avg, e, p) {
			return fmt.Errorf("table %d: one row scores %v pairwise, %v entity-wise", tid, p, e)
		}
		if !r.Avg && p > e {
			return fmt.Errorf("table %d: pairwise MAX %v above entity-wise MAX %v", tid, p, e)
		}
	}
	return nil
}
