package core

import (
	"math"
	"slices"
	"sync/atomic"
	"time"

	"thetis/internal/hungarian"
	"thetis/internal/kg"
	"thetis/internal/table"
)

// Aggregation selects how per-row entity scores are folded into one score
// per query entity (Algorithm 1, line 13). The paper finds MAX up to 5×
// better on NDCG because it amplifies the relevance signal of the best
// matching tuples (Section 7.2).
type Aggregation int

const (
	// AggregateMax keeps, per query entity, the best similarity across all
	// table rows of the mapped column.
	AggregateMax Aggregation = iota
	// AggregateAvg averages the similarity across all table rows
	// (unlinked cells contribute 0).
	AggregateAvg
)

// String implements fmt.Stringer.
func (a Aggregation) String() string {
	if a == AggregateAvg {
		return "avg"
	}
	return "max"
}

// scorer evaluates SemRel for one query against tables, carrying the
// immutable pieces of Algorithm 1's inner loop. Query entities are
// resolved once to distinct slots, so σ memoization and per-table column
// scores are shared between tuples that repeat an entity.
type scorer struct {
	inf Informativeness
	agg Aggregation
	q   Query
	// weights[ti][k] = I(q[ti][k]), precomputed.
	weights [][]float64
	// distinct are the deduplicated query entities; slots[ti][k] indexes
	// q[ti][k]'s entity in it.
	distinct []kg.EntityID
	slots    [][]int

	// shared is the search's σ cache, built from q and shared by all its
	// workers, so index di of distinct is slot di of the cache.
	shared *SigmaCache
	// hits/misses batch the shared cache's counters locally (merged once
	// per search, not once per lookup).
	hits, misses int64

	// Per-table scratch, filled by sigmaPass in one pass over the table's
	// columns: for distinct query entity di and column j (of cols),
	// sums[di*cols+j] is Σ σ(distinct[di], e) over column j's cells — one
	// row of the score matrix S per distinct entity, shared by every tuple
	// that mentions it — and maxes[di*cols+j] the largest σ among them.
	// sigmas, colSum and colMax (one value per distinct entity) are the
	// pass's working rows, and best[di] the largest column score of
	// distinct entity di, which the pass keeps for upperBound.
	cols                         int
	sums, maxes                  []float64
	sigmas, colSum, colMax, best []float64

	// floor is the search's running k-th best score, shared by its workers
	// (nil: never prune — rank-everything searches and ScoreTable). A table
	// whose upperBound is below it cannot enter the top k, so scoreTable
	// returns after the σ pass and counts it in pruned (merged once per
	// search, like hits and misses).
	floor  *scoreFloor
	pruned int

	// Column-mapping workspace, reused for every table this scorer sees so
	// the steady-state scoring loop allocates nothing. It lives and dies
	// with the scorer (one per worker per search). matrix holds the row
	// headers of the score matrix S for the tuple being mapped; solver is
	// the assignment's scratch; assignment[ti] is tuple ti's column
	// assignment for the current table and mapped[ti] whether its total is
	// positive.
	matrix     [][]float64
	solver     hungarian.Solver
	assignment [][]int
	mapped     []bool
}

func newScorer(q Query, inf Informativeness, agg Aggregation, shared *SigmaCache) *scorer {
	s := &scorer{
		inf:     inf,
		agg:     agg,
		q:       q,
		weights: make([][]float64, len(q)),
		slots:   make([][]int, len(q)),
		shared:  shared,

		assignment: make([][]int, len(q)),
		mapped:     make([]bool, len(q)),
	}
	index := make(map[kg.EntityID]int)
	widest := 0
	for ti, tq := range q {
		s.weights[ti] = make([]float64, len(tq))
		s.slots[ti] = make([]int, len(tq))
		s.assignment[ti] = make([]int, len(tq))
		widest = max(widest, len(tq))
		for k, e := range tq {
			s.weights[ti][k] = inf(e)
			di, ok := index[e]
			if !ok {
				di = len(s.distinct)
				index[e] = di
				s.distinct = append(s.distinct, e)
			}
			s.slots[ti][k] = di
		}
	}
	if !slices.Equal(shared.entities, s.distinct) {
		panic("core: σ cache was built for another query")
	}
	s.sigmas = make([]float64, len(s.distinct))
	s.colSum = make([]float64, len(s.distinct))
	s.colMax = make([]float64, len(s.distinct))
	s.best = make([]float64, len(s.distinct))
	s.matrix = make([][]float64, widest)
	return s
}

// cell returns cell (di, key) of the search's cache for target, whose row
// is key, filling it on a miss: the one-cell read wherever the dense array
// does not cover the row.
func (s *scorer) cell(di int, key, target uint32) float64 {
	if v, ok := s.shared.get(di, key); ok {
		s.hits++
		return v
	}
	s.misses++
	return s.shared.put(di, key, target)
}

// readSigmas returns σ(distinct[di], target) for every distinct query
// entity at once under an un-keyed σ, whose rows are corpus entities, in
// scorer scratch valid until the next call: the dense row through
// readRow, and otherwise — the sharded cache, an entity interned after
// the cache was sized — cell by cell.
func (s *scorer) readSigmas(target uint32) []float64 {
	if key, dense := s.shared.rowKey(target); dense {
		return s.readRow(key, target)
	}
	out := s.sigmas
	for di := range out {
		out[di] = s.cell(di, target, target)
	}
	return out
}

// keyRow returns row key of a keyed σ's cache — σ(distinct[di], e) for
// every entity e ≠ distinct[di] with that key — in scorer scratch valid
// until the next call: the dense row through readRow, and cell by cell in
// sharded mode. It carries no identity: the σ pass corrects a query
// entity's own cells itself (identity).
func (s *scorer) keyRow(key uint32) []float64 {
	if int(key) < s.shared.n {
		return s.readRow(key, 0)
	}
	out := s.sigmas
	for di := range out {
		out[di] = s.cell(di, key, 0)
	}
	return out
}

// readRow reads dense row key, whose cells are target's σ (target is unused
// under a keyed σ), for every slot: it takes the row through
// SigmaCache.row, which resets it if its stamp is stale, and indexes it
// directly — the atomics and the hit/miss counting of get/put, one count
// per cell, without a call per cell — and hands the cells it found empty,
// still marked with sigmaUnset's bits, to fillRow in one call.
func (s *scorer) readRow(key, target uint32) []float64 {
	out := s.sigmas
	c := s.shared
	cells := c.row(key)
	var missed int64
	for di := range out {
		bits := atomic.LoadUint64(&cells[di])
		if bits == sigmaUnset {
			missed++
		}
		out[di] = math.Float64frombits(bits)
	}
	s.hits += int64(len(out)) - missed
	if missed > 0 {
		s.misses += missed
		c.fillRow(key, target, out)
	}
	return out
}

// tableView is what scoreTable reads of one table. Under a keyed σ that is
// the table's column key groups (lake.KeyGroups) and, only when some query
// entity sits in the table, its column index, for the identity correction;
// under any other σ, the column index and the row count.
type tableView struct {
	rows   int
	groups *table.KeyGroups   // keyed σ
	ci     *table.ColumnIndex // un-keyed σ; under a keyed σ nil unless a query entity is in the table
}

// numColumns returns the table's column count.
func (v tableView) numColumns() int {
	if v.groups != nil {
		return v.groups.NumColumns()
	}
	return len(v.ci.Cols)
}

// scoreTable computes SemRel(Q, T) per Algorithm 1 and returns the score
// together with the time spent computing the query-to-column mapping μ
// (the cost fraction studied in Section 7.3) when timed, 0 otherwise. A
// table for which no query entity has any positive similarity scores 0 and
// is thereby excluded from results, satisfying Problem 2.2.
//
// The σ pass over the columns and the mapping of every tuple run first,
// under one clock pair when timed — building S is part of µ, as in the
// paper's 58–78 % — and the tuples are scored second, from scratch alone; a
// warm scorer allocates nothing here. Between the two, a table that
// upperBound shows cannot reach the search's floor returns 0 without being
// mapped or scored.
func (s *scorer) scoreTable(v tableView, timed bool) (float64, time.Duration) {
	if v.rows == 0 || v.numColumns() == 0 {
		return 0, 0
	}
	var start time.Time
	if timed {
		start = time.Now()
	}
	s.sigmaPass(v)
	// Strictly below: a table that could tie the k-th score is scored, and
	// the (score desc, table ID asc) order decides, as without pruning.
	if floor := s.floor.load(); floor > 0 && s.upperBound() < floor {
		s.pruned++
		return 0, since(start)
	}
	matched := false
	for ti := range s.q {
		// A tuple without a relevant mapping contributes 0.
		s.mapped[ti] = s.mapColumns(ti) > 0
		matched = matched || s.mapped[ti]
	}
	mappingTime := since(start)
	if !matched {
		return 0, mappingTime
	}
	total := 0.0
	for ti := range s.q {
		if s.mapped[ti] {
			total += s.tupleScore(ti, v.rows, s.assignment[ti])
		}
	}
	return total / float64(len(s.q)), mappingTime
}

// since is time.Since(start), or 0 for the zero start of an untimed table.
func since(start time.Time) time.Duration {
	if start.IsZero() {
		return 0
	}
	return time.Since(start)
}

// sigmaPass is the table's one σ pass. It leaves in sums the score matrix
// rows (Section 5.1: per-column sums of σ over every cell) and in maxes the
// per-column maxima MAX aggregation needs, so mapColumns and tupleScore
// read scratch only. As it writes each column it keeps, in best, each
// query entity's best column score for upperBound: the aggregate
// (aggregateColumn), from 0, taken in column order.
//
// Under a keyed σ the pass reads each column by key group: one cache row
// per (column, key), added count × σ in group order — Σ count × σ per key,
// where the cells themselves would add σ per cell. A query entity's own
// cells read its key's value there, which identity then corrects to σ = 1.
// Under any other σ it reads one cache row per distinct entity of each
// column, added count × σ in ColumnIndex order.
func (s *scorer) sigmaPass(v tableView) {
	d, cols := len(s.distinct), v.numColumns()
	s.cols = cols
	if cap(s.sums) < d*cols {
		s.sums, s.maxes = make([]float64, d*cols), make([]float64, d*cols)
	}
	s.sums, s.maxes = s.sums[:d*cols], s.maxes[:d*cols]
	colSum, colMax := s.colSum, s.colMax
	clear(s.best)
	for j := range cols {
		for di := range colSum {
			colSum[di], colMax[di] = 0, 0
		}
		if g := v.groups; g != nil {
			for i := g.Offsets[j]; i < g.Offsets[j+1]; i++ {
				addRow(colSum, colMax, float64(g.Counts[i]), s.keyRow(g.Keys[i]))
			}
			if v.ci != nil {
				s.identity(&v.ci.Cols[j])
			}
		} else {
			cs := &v.ci.Cols[j]
			for i, e := range cs.Entities {
				addRow(colSum, colMax, float64(cs.Counts[i]), s.readSigmas(uint32(e)))
			}
		}
		for di := range colSum {
			s.sums[di*cols+j], s.maxes[di*cols+j] = colSum[di], colMax[di]
			s.best[di] = max(s.best[di], s.aggregateColumn(di, j, v.rows))
		}
	}
}

// addRow folds one σ row, read for count cells of a column, into the
// column's running sums and maxima.
func addRow(colSum, colMax []float64, count float64, row []float64) {
	for di, v := range row {
		colSum[di] += count * v
		if v > colMax[di] {
			colMax[di] = v
		}
	}
}

// identity applies σ(e, e) = 1 to the current column under a keyed σ, whose
// key rows hold Equation 4 for e' ≠ e only: for each query entity among the
// column's entities (cs, the column's ColumnIndex entry), the count cells it
// occupies were added at its key's value (SigmaCache.self), so the sum
// gains count × (1 − self), and the maximum becomes 1.
func (s *scorer) identity(cs *table.ColumnEntityStats) {
	for i, e := range cs.Entities {
		if di := slices.Index(s.distinct, e); di >= 0 {
			s.colSum[di] += float64(cs.Counts[i]) * (1 - s.shared.self[di])
			s.colMax[di] = max(s.colMax[di], 1)
		}
	}
}

// upperBound returns, from the best column scores sigmaPass kept for the
// current table, a score the table cannot exceed under any column
// assignment: every query entity takes its best column, whether or not
// another entity wants the same one. It repeats tupleScore's operations in
// tupleScore's order with x replaced by best ≥ max(x, 0) and the miss
// clamped at 0 (an x above 1, from a σ outside [0, 1], makes the real miss²
// positive), so with weights ≥ 0 every step is monotone in floating point
// and the bound holds on the raw float64s, with no epsilon.
func (s *scorer) upperBound() float64 {
	total := 0.0
	for ti, slots := range s.slots {
		var distSq float64
		for i, di := range slots {
			miss := max(1-s.best[di], 0)
			distSq += s.weights[ti][i] * miss * miss
		}
		total += 1 / (math.Sqrt(distSq) + 1)
	}
	return total / float64(len(s.q))
}

// mapColumns assembles the score matrix S (Section 5.1) for query tuple ti
// from the per-entity rows sigmaPass left for the current table and
// solves the assignment problem, leaving the per-entity column assignments
// (-1 = unassigned) in s.assignment[ti] and returning the total assignment
// score. Tuple entities that repeat share one row (aliased, read-only to
// the solver).
func (s *scorer) mapColumns(ti int) float64 {
	slots := s.slots[ti]
	S := s.matrix[:len(slots)]
	for i, di := range slots {
		S[i] = s.sums[di*s.cols:][:s.cols]
	}
	assignment := s.assignment[ti]
	copy(assignment, s.solver.Maximize(S))
	return hungarian.TotalScore(S, assignment)
}

// tupleScore computes the weighted-Euclidean SemRel of query tuple ti
// against the whole table under the given column assignment (Equations 2–3,
// Algorithm 1 lines 7–14).
func (s *scorer) tupleScore(ti, numRows int, assignment []int) float64 {
	slots := s.slots[ti]
	var distSq float64
	for i := range slots {
		x := 0.0
		if j := assignment[i]; j >= 0 {
			x = s.aggregateColumn(slots[i], j, numRows)
		}
		miss := 1 - x
		distSq += s.weights[ti][i] * miss * miss
	}
	return 1 / (math.Sqrt(distSq) + 1)
}

// aggregateColumn folds the per-row similarities of distinct query entity
// di against column j into one score per the configured aggregation, from
// what sigmaPass accumulated: the per-row σ sum of the column is exactly
// the entity's score-matrix cell, and the maximum is capped at 1.
func (s *scorer) aggregateColumn(di, j, numRows int) float64 {
	if s.agg == AggregateAvg {
		return s.sums[di*s.cols+j] / float64(numRows)
	}
	return min(s.maxes[di*s.cols+j], 1)
}
