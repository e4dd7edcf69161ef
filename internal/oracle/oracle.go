// Package oracle is table search (Algorithm 1, Equations 1–4, paper §4–5)
// over raw cells: S summed row by row, µ from hungarian.Maximize on it, one
// table at a time, with no index, cache, pruning, goroutine or internal/core.
// It also holds the readings the paper sets aside: pairwise and greedy µ.
//
// Comparison rule (Agree, AgreeRanking): the same table at every rank. Under
// MAX the scores are bit-equal: the folds take maxima and no sum is
// reassociated. Under AVG they agree within Tolerance, and two tables whose
// oracle scores agree within it may trade places on one side of the top-k cut.
// Where two assignments tie on the µ objective, the check scores the fast
// path's own µ with ScoreAssigned; the tolerance is never widened for a tie.
package oracle

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"thetis/internal/hungarian"
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/table"
)

const Tolerance = 1e-12 // the score difference allowed under AVG
const MaxJaccard = 0.95 // Equation 4's cap on σ of two distinct entities

// Agree reports whether a fast path's score agrees with the oracle's.
func Agree(avg bool, fast, oracle float64) bool {
	return fast == oracle || avg && math.Abs(fast-oracle) <= Tolerance
}

// AgreeRanking returns the first difference under the rule between got and
// the top k (k < 0: all) of want, the oracle's ranking of the query, or nil.
func AgreeRanking(avg bool, got, want []Ranked, k int) error {
	if k >= 0 && k < len(want) {
		want = want[:k]
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d results, oracle %d", len(got), len(want))
	}
	rank := make(map[lake.TableID]int, len(want))
	for i, w := range want {
		rank[w.Table] = i
	}
	for i, g := range got {
		j, ok := rank[g.Table]
		delete(rank, g.Table) // a table ranked twice is then missing
		if !ok || !Agree(avg, g.Score, want[j].Score) || j != i && !(avg && Agree(avg, want[j].Score, want[i].Score)) {
			return fmt.Errorf("rank %d: table %d scores %v, oracle table %d %v", i, g.Table, g.Score, want[i].Table, want[i].Score)
		}
	}
	return nil
}

// Similarity is the entity similarity σ of §5.3.
type Similarity interface {
	Score(a, b kg.EntityID) float64
}

// Config is a reading of Algorithm 1; the zero flags are the paper's choices.
type Config struct {
	Sim      Similarity
	Weight   func(kg.EntityID) float64 // the informativeness I(e) of Equation 2
	Avg      bool                      // fold by the average, not the maximum
	Pairwise bool                      // score each row as a tuple, fold the rows (Eq. 1)
	Greedy   bool                      // µ by Greedy instead of the optimum
}

// Ranked is a table's score and each query tuple's µ (-1: unassigned).
type Ranked struct {
	Table      lake.TableID
	Score      float64
	Assignment [][]int
}

// Tuples copies a query, in any named tuple type, into the oracle's shape.
func Tuples[T ~[]kg.EntityID](q []T) [][]kg.EntityID {
	out := make([][]kg.EntityID, len(q))
	for i, tq := range q {
		out[i] = []kg.EntityID(tq)
	}
	return out
}

// Rank returns the live tables of l scoring above 0, best first, then by ID.
func (c Config) Rank(l *lake.Lake, q [][]kg.EntityID) []Ranked {
	var out []Ranked
	for _, tid := range l.LiveTableIDs() {
		if score, a := c.Score(l.Table(tid), q); score > 0 {
			out = append(out, Ranked{Table: tid, Score: score, Assignment: a})
		}
	}
	slices.SortFunc(out, func(a, b Ranked) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Table, b.Table))
	})
	return out
}

// Score returns SemRel(Q, T) and each tuple's µ (Hungarian, or Greedy) on S.
func (c Config) Score(t *table.Table, q [][]kg.EntityID) (float64, [][]int) {
	assignment := make([][]int, len(q))
	for ti, tq := range q {
		if S := c.Matrix(t, tq); c.Greedy {
			assignment[ti] = Greedy(S)
		} else {
			assignment[ti] = hungarian.Maximize(S)
		}
	}
	return c.ScoreAssigned(t, q, assignment), assignment
}

// ScoreAssigned is SemRel(Q, T) under assignment: the mean over the tuples of
// semRel of each entity's folded column, or pairwise the fold of each row's
// semRel. A tuple whose assigned σ sums to 0 or less scores 0.
func (c Config) ScoreAssigned(t *table.Table, q [][]kg.EntityID, assignment [][]int) float64 {
	total := 0.0
	for ti, tq := range q {
		column := make([][]float64, len(tq))
		assigned := 0.0
		for i, e := range tq {
			column[i] = c.column(t, e, assignment[ti][i])
			assigned += sum(column[i])
		}
		if assigned > 0 && !c.Pairwise {
			total += c.semRel(tq, func(i int) float64 { return c.fold(column[i]) })
		} else if assigned > 0 {
			rows := make([]float64, t.NumRows())
			for r := range rows {
				rows[r] = c.semRel(tq, func(i int) float64 { return column[i][r] })
			}
			total += c.fold(rows)
		}
	}
	return total / float64(max(len(q), 1))
}

// Matrix is §5.1's S for a query tuple: S[i][j] sums σ(eᵢ, ·) down column j.
func (c Config) Matrix(t *table.Table, tq []kg.EntityID) [][]float64 {
	S := make([][]float64, len(tq))
	for i, e := range tq {
		S[i] = make([]float64, t.NumColumns())
		for j := range S[i] {
			S[i][j] = sum(c.column(t, e, j))
		}
	}
	return S
}

// column is σ(e, ·) down column j by row: 0 unlinked, and all 0 when j < 0.
func (c Config) column(t *table.Table, e kg.EntityID, j int) []float64 {
	out := make([]float64, t.NumRows())
	for r := 0; j >= 0 && r < len(out); r++ {
		if ce, ok := t.Rows[r][j].EntityID(); ok {
			out[r] = c.Sim.Score(e, ce)
		}
	}
	return out
}

// Greedy gives each row of S in turn its best free positive column (-1: none).
func Greedy(S [][]float64) []int {
	out := make([]int, len(S))
	used := map[int]bool{}
	for i := range S {
		out[i] = -1
		for j, v := range S[i] {
			if !used[j] && v > 0 && (out[i] < 0 || v > S[i][out[i]]) {
				out[i] = j
			}
		}
		used[out[i]] = true
	}
	return out
}

// UpperBound is a score t (with a row) cannot exceed entity-wise: each entity
// takes its largest column fold, clamped to [0, 1], shared columns or not.
func (c Config) UpperBound(t *table.Table, q [][]kg.EntityID) float64 {
	total := 0.0
	for _, tq := range q {
		total += c.semRel(tq, func(i int) float64 {
			best := 0.0
			for j := range t.NumColumns() {
				best = max(best, c.fold(c.column(t, tq[i], j)))
			}
			return min(best, 1)
		})
	}
	return total / float64(len(q))
}

// fold is the row aggregation of a non-empty xs: the maximum from 0, or the mean.
func (c Config) fold(xs []float64) float64 {
	if c.Avg {
		return sum(xs) / float64(len(xs))
	}
	return max(0, slices.Max(xs))
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// semRel is Equations 2–3: 1 / (1 + the I-weighted distance of x to (1, …, 1)).
func (c Config) semRel(tq []kg.EntityID, x func(i int) float64) float64 {
	distSq := 0.0
	for i, e := range tq {
		miss := 1 - x(i)
		distSq += c.Weight(e) * miss * miss
	}
	return 1 / (math.Sqrt(distSq) + 1)
}

// TypeJaccard is Equation 4 over expanded type sets: σ(e, e) = 1, else their
// Jaccard capped at MaxJaccard (0 if either is empty, as for later entities).
type TypeJaccard []map[kg.TypeID]bool

// NewTypeJaccard expands the types of every entity of g.
func NewTypeJaccard(g *kg.Graph) TypeJaccard {
	tj := make(TypeJaccard, g.NumEntities())
	for e := range tj {
		tj[e] = map[kg.TypeID]bool{}
		for _, t := range g.ExpandedTypes(kg.EntityID(e)) {
			tj[e][t] = true
		}
	}
	return tj
}

// Score implements Similarity.
func (tj TypeJaccard) Score(a, b kg.EntityID) float64 {
	if a == b {
		return 1
	}
	if int(max(a, b)) >= len(tj) || len(tj[a]) == 0 || len(tj[b]) == 0 {
		return 0
	}
	inter := 0
	for t := range tj[a] {
		if tj[b][t] {
			inter++
		}
	}
	return min(float64(inter)/float64(len(tj[a])+len(tj[b])-inter), MaxJaccard)
}
