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

// ScoreMode selects between the two interpretations of SemRel(Q, T)
// discussed in Section 4.1 of the paper.
type ScoreMode int

const (
	// ModeEntityWise is Algorithm 1: per query entity, row scores down the
	// assigned column are aggregated first, then one weighted Euclidean
	// distance is computed per query tuple. This is the default.
	ModeEntityWise ScoreMode = iota
	// ModePairwise is Equation 1's reading: every table row is scored as a
	// whole tuple against the query tuple (its own weighted Euclidean
	// distance), and the per-row SemRel values are then folded across rows
	// with the configured aggregation ("the average of the score within
	// each tuple-to-tuple comparison or … the best match between query
	// tuples and tuples in the table").
	ModePairwise
)

// String implements fmt.Stringer.
func (m ScoreMode) String() string {
	if m == ModePairwise {
		return "pairwise"
	}
	return "entitywise"
}

// MappingMethod selects how query entities are assigned to table columns.
type MappingMethod int

const (
	// MappingHungarian solves the assignment optimally (Section 5.1, the
	// paper's choice). O(k²·n) in query width k and column count n.
	MappingHungarian MappingMethod = iota
	// MappingGreedy assigns each query entity its best still-free column
	// in query order. Cheaper but can pick a suboptimal assignment when
	// entities compete for the same column — the ablation quantifying why
	// the paper uses the Hungarian method.
	MappingGreedy
)

// String implements fmt.Stringer.
func (m MappingMethod) String() string {
	if m == MappingGreedy {
		return "greedy"
	}
	return "hungarian"
}

// scorer evaluates SemRel for one query against tables, carrying the
// immutable pieces of Algorithm 1's inner loop. Query entities are
// resolved once to distinct slots, so σ memoization and per-table column
// scores are shared between tuples that repeat an entity.
type scorer struct {
	sim     Similarity
	inf     Informativeness
	agg     Aggregation
	mode    ScoreMode
	mapping MappingMethod
	q       Query
	// weights[ti][k] = I(q[ti][k]), precomputed.
	weights [][]float64
	// distinct are the deduplicated query entities; slots[ti][k] indexes
	// q[ti][k]'s entity in it.
	distinct []kg.EntityID
	slots    [][]int

	// shared is the search's σ cache, built from q and shared by all its
	// workers, so index di of distinct is slot di of the cache; nil when
	// disabled (Engine.DisableSigmaCache), and every σ is then computed.
	shared *SigmaCache
	// hits/misses batch the shared cache's counters locally (merged once
	// per search, not once per lookup).
	hits, misses int64

	// Per-table scratch, filled by scoreColumns in one pass over the table's
	// columns: for distinct query entity di and column j (of cols),
	// sums[di*cols+j] is Σ σ(distinct[di], e) over column j's cells — one
	// row of the score matrix S per distinct entity, shared by every tuple
	// that mentions it — and maxes[di*cols+j] the largest σ among them.
	// sigmas, colSum and colMax (one value per distinct entity) are the
	// pass's working rows, and best upperBound's.
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
	// headers of the score matrix S for the tuple being mapped; solver and
	// greedyUsed are the two mapping methods' scratch; assignment[ti] is
	// tuple ti's column assignment for the current table and mapped[ti]
	// whether its total is positive.
	matrix     [][]float64
	solver     hungarian.Solver
	greedyUsed []bool
	assignment [][]int
	mapped     []bool
}

func newScorer(q Query, sim Similarity, inf Informativeness, agg Aggregation, mode ScoreMode, mapping MappingMethod, shared *SigmaCache) *scorer {
	s := &scorer{
		sim:     sim,
		inf:     inf,
		agg:     agg,
		mode:    mode,
		mapping: mapping,
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
	if shared != nil && !slices.Equal(shared.entities, s.distinct) {
		panic("core: σ cache was built for another query")
	}
	s.sigmas = make([]float64, len(s.distinct))
	s.colSum = make([]float64, len(s.distinct))
	s.colMax = make([]float64, len(s.distinct))
	s.best = make([]float64, len(s.distinct))
	s.matrix = make([][]float64, widest)
	return s
}

// sigma returns σ(distinct[di], target), memoized in the search's cache when
// there is one and computed otherwise. It is the one-cell read of every cache
// mode: ModePairwise's per-row reads, and readSigmas wherever the dense array
// does not cover the cell.
func (s *scorer) sigma(di int, target uint32) float64 {
	if s.shared == nil {
		return s.sim.Score(s.distinct[di], kgEntity(target))
	}
	if v, ok := s.shared.lookup(di, target); ok {
		s.hits++
		return v
	}
	v := s.sim.Score(s.distinct[di], kgEntity(target))
	s.shared.store(di, target, v)
	s.misses++
	return v
}

// readSigmas returns σ(distinct[di], target) for every distinct query
// entity at once, in scorer scratch valid until the next call. A dense
// shared cache keeps those cells adjacent (entity-major), so the read
// indexes that row directly — the atomics and the hit/miss counting of
// lookup/store, one count per cell, without a call per cell — and hands the
// cells it found empty, still marked with sigmaUnset's bits, to fillRow in
// one call. Everything else — the sharded cache, no cache, an entity
// interned after the cache was sized — reads cell by cell through sigma.
func (s *scorer) readSigmas(target uint32) []float64 {
	out := s.sigmas
	if c := s.shared; c != nil && c.dense != nil && int(target) < c.n {
		cells := c.row(target)
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
			c.fillRow(target, out)
		}
		return out
	}
	for di := range out {
		out[di] = s.sigma(di, target)
	}
	return out
}

// scoreTable computes SemRel(Q, T) per Algorithm 1 and returns the score
// together with the time spent computing the query-to-column mapping μ
// (the cost fraction studied in Section 7.3). ci is the table's column
// pre-aggregation (nil builds a transient one). A table for which no query
// entity has any positive similarity scores 0 and is thereby excluded from
// results, satisfying Problem 2.2.
//
// The σ pass over the columns and the mapping of every tuple run first,
// under one clock pair — building S is part of µ, as in the paper's 58–78 %
// — and the tuples are scored second, from scratch alone; a warm scorer
// allocates nothing here. Between the two, a table that upperBound shows
// cannot reach the search's floor returns 0 without being mapped or scored.
func (s *scorer) scoreTable(t *table.Table, ci *table.ColumnIndex) (float64, time.Duration) {
	if t.NumRows() == 0 || t.NumColumns() == 0 {
		return 0, 0
	}
	if ci == nil {
		ci = table.BuildColumnIndex(t)
	}
	start := time.Now()
	s.scoreColumns(ci)
	// Strictly below: a table that could tie the k-th score is scored, and
	// the (score desc, table ID asc) order decides, as without pruning.
	if floor := s.floor.load(); floor > 0 && s.upperBound(t.NumRows()) < floor {
		s.pruned++
		return 0, time.Since(start)
	}
	matched := false
	for ti := range s.q {
		// A tuple without a relevant mapping contributes 0.
		s.mapped[ti] = s.mapColumns(ti) > 0
		matched = matched || s.mapped[ti]
	}
	mappingTime := time.Since(start)
	if !matched {
		return 0, mappingTime
	}
	total := 0.0
	for ti := range s.q {
		if !s.mapped[ti] {
			continue
		}
		if s.mode == ModePairwise {
			total += s.tupleScorePairwise(ti, t, s.assignment[ti])
		} else {
			total += s.tupleScore(ti, t.NumRows(), s.assignment[ti])
		}
	}
	return total / float64(len(s.q)), mappingTime
}

// scoreColumns is the table's one σ pass: it visits each distinct entity of
// each column once, reads its σ against every distinct query entity, and
// leaves in sums the score matrix rows (Section 5.1: per-column sums of σ
// over every cell, as distinct entities × multiplicities) and in maxes the
// per-column maxima MAX aggregation needs, so mapColumns and tupleScore
// read scratch only. Per (query entity, column) the sum adds the column's
// entities in ColumnIndex order.
func (s *scorer) scoreColumns(ci *table.ColumnIndex) {
	d, cols := len(s.distinct), len(ci.Cols)
	s.cols = cols
	if cap(s.sums) < d*cols {
		s.sums, s.maxes = make([]float64, d*cols), make([]float64, d*cols)
	}
	s.sums, s.maxes = s.sums[:d*cols], s.maxes[:d*cols]
	colSum, colMax := s.colSum, s.colMax
	for j := range ci.Cols {
		cs := &ci.Cols[j]
		clear(colSum)
		clear(colMax)
		for i, e := range cs.Entities {
			count := float64(cs.Counts[i])
			for di, v := range s.readSigmas(uint32(e)) {
				colSum[di] += count * v
				if v > colMax[di] {
					colMax[di] = v
				}
			}
		}
		for di := range colSum {
			s.sums[di*cols+j], s.maxes[di*cols+j] = colSum[di], colMax[di]
		}
	}
}

// upperBound returns, from the scratch scoreColumns filled, a score the
// current table cannot exceed under any column assignment: every query
// entity takes its best column, whether or not another entity wants the same
// one. It repeats tupleScore's operations in tupleScore's order with x
// replaced by best ≥ max(x, 0) and the miss clamped at 0 (an x above 1, from
// a σ outside [0, 1], makes the real miss² positive), so with weights ≥ 0
// every step is monotone in floating point and the bound holds on the raw
// float64s, with no epsilon. A pairwise row reads single σ values, each at
// most its column's maximum; the pairwise AVG fold is replayed row by row
// because a sum of n equal terms divided by n can round above the term.
func (s *scorer) upperBound(numRows int) float64 {
	for di := range s.best {
		b := 0.0
		for j := range s.cols {
			x := s.maxes[di*s.cols+j]
			if s.mode == ModeEntityWise {
				x = s.aggregateColumn(di, j, numRows)
			}
			b = max(b, x)
		}
		s.best[di] = b
	}
	total := 0.0
	for ti, slots := range s.slots {
		var distSq float64
		for i, di := range slots {
			miss := max(1-s.best[di], 0)
			distSq += s.weights[ti][i] * miss * miss
		}
		u := 1 / (math.Sqrt(distSq) + 1)
		if s.mode == ModePairwise && s.agg == AggregateAvg {
			sum := 0.0
			for range numRows {
				sum += u
			}
			u = sum / float64(numRows)
		}
		total += u
	}
	return total / float64(len(s.q))
}

// mapColumns assembles the score matrix S (Section 5.1) for query tuple ti
// from the per-entity rows scoreColumns left for the current table and
// solves the assignment problem, leaving the per-entity column assignments
// (-1 = unassigned) in s.assignment[ti] and returning the total assignment
// score. Tuple entities that repeat share one row (aliased, read-only under
// both solvers).
func (s *scorer) mapColumns(ti int) float64 {
	slots := s.slots[ti]
	S := s.matrix[:len(slots)]
	for i, di := range slots {
		S[i] = s.sums[di*s.cols:][:s.cols]
	}
	assignment := s.assignment[ti]
	if s.mapping == MappingGreedy {
		s.greedyMaximize(S, assignment)
	} else {
		copy(assignment, s.solver.Maximize(S))
	}
	return hungarian.TotalScore(S, assignment)
}

// greedyMaximize assigns each row of S (query entity) its best still-unused
// column, in row order, writing the column (-1 = none) to out[row]. Not
// optimal; see MappingGreedy.
func (s *scorer) greedyMaximize(S [][]float64, out []int) {
	if len(S) == 0 {
		return
	}
	if cap(s.greedyUsed) < len(S[0]) {
		s.greedyUsed = make([]bool, len(S[0]))
	}
	used := s.greedyUsed[:len(S[0])]
	clear(used)
	for i := range S {
		out[i] = -1
		best := 0.0
		for j, v := range S[i] {
			if !used[j] && v > best {
				best, out[i] = v, j
			}
		}
		if out[i] >= 0 {
			used[out[i]] = true
		}
	}
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

// tupleScorePairwise computes SemRel for one query tuple under
// ModePairwise: each table row becomes a point in the query's Euclidean
// space and earns its own SemRel, which is then folded across rows by the
// configured aggregation.
func (s *scorer) tupleScorePairwise(ti int, t *table.Table, assignment []int) float64 {
	slots := s.slots[ti]
	best, sum := 0.0, 0.0
	for _, row := range t.Rows {
		var distSq float64
		for i := range slots {
			x := 0.0
			if j := assignment[i]; j >= 0 {
				if e, ok := row[j].EntityID(); ok {
					x = s.sigma(slots[i], uint32(e))
				}
			}
			miss := 1 - x
			distSq += s.weights[ti][i] * miss * miss
		}
		rowScore := 1 / (math.Sqrt(distSq) + 1)
		sum += rowScore
		if rowScore > best {
			best = rowScore
		}
	}
	if s.agg == AggregateAvg {
		return sum / float64(t.NumRows())
	}
	return best
}

// aggregateColumn folds the per-row similarities of distinct query entity
// di against column j into one score per the configured aggregation, from
// what scoreColumns accumulated: the per-row σ sum of the column is exactly
// the entity's score-matrix cell, and the maximum is capped at 1.
func (s *scorer) aggregateColumn(di, j, numRows int) float64 {
	if s.agg == AggregateAvg {
		return s.sums[di*s.cols+j] / float64(numRows)
	}
	return min(s.maxes[di*s.cols+j], 1)
}
