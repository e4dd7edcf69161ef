package core

import (
	"math"
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

// sigmaCache memoizes σ(e, ·) for a fixed distinct query entity — the
// per-worker fallback used when the shared query-scoped SigmaCache is
// disabled (Engine.DisableSigmaCache).
type sigmaCache map[uint32]float64

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

	// shared is the query-scoped (or batch-scoped) σ cache shared across
	// all workers of one search; nil when disabled, in which case local
	// memoizes per worker. cacheSlot maps the scorer's distinct-entity
	// index to the cache's slot: identity for a query-scoped cache, a
	// union remap for a batch-scoped one (docs/THROUGHPUT.md).
	shared    *SigmaCache
	cacheSlot []int
	local     []sigmaCache
	// hits/misses batch the shared cache's counters locally (merged once
	// per search, not once per lookup).
	hits, misses int64

	// Per-table scratch, reset by scoreTable: rowScore[di][j] is the sum
	// of σ(distinct[di], e) over column j's cells — the σ submatrix row of
	// the column mapping, computed once per distinct entity per table and
	// reused by every tuple that mentions the entity.
	rowScore [][]float64
	rowValid []bool

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
	slotOf := make(map[kg.EntityID]int)
	widest := 0
	for ti, tq := range q {
		s.weights[ti] = make([]float64, len(tq))
		s.slots[ti] = make([]int, len(tq))
		s.assignment[ti] = make([]int, len(tq))
		widest = max(widest, len(tq))
		for k, e := range tq {
			s.weights[ti][k] = inf(e)
			di, ok := slotOf[e]
			if !ok {
				di = len(s.distinct)
				slotOf[e] = di
				s.distinct = append(s.distinct, e)
			}
			s.slots[ti][k] = di
		}
	}
	if shared != nil {
		// Resolve this scorer's distinct entities to the cache's slots.
		// A query-scoped cache covers them by construction; a batch-scoped
		// cache covers the union of its batch's queries. An uncovered
		// entity means the cache belongs to some other query set — drop it
		// and fall back to worker-local memoization rather than mis-slot.
		s.cacheSlot = make([]int, len(s.distinct))
		for i, e := range s.distinct {
			slot, ok := shared.Slot(e)
			if !ok {
				s.shared, s.cacheSlot = nil, nil
				break
			}
			s.cacheSlot[i] = slot
		}
	}
	if s.shared == nil {
		s.local = make([]sigmaCache, len(s.distinct))
		for i := range s.local {
			s.local[i] = make(sigmaCache)
		}
	}
	s.rowScore = make([][]float64, len(s.distinct))
	s.rowValid = make([]bool, len(s.distinct))
	s.matrix = make([][]float64, widest)
	return s
}

// sigma returns σ(distinct[di], target), memoized in the shared query- or
// batch-scoped cache when one is attached, else in the worker-local map.
func (s *scorer) sigma(di int, target uint32) float64 {
	if s.shared != nil {
		if v, ok := s.shared.lookup(s.cacheSlot[di], target); ok {
			s.hits++
			return v
		}
		v := s.sim.Score(s.distinct[di], kgEntity(target))
		s.shared.store(s.cacheSlot[di], target, v)
		s.misses++
		return v
	}
	c := s.local[di]
	if v, ok := c[target]; ok {
		return v
	}
	v := s.sim.Score(s.distinct[di], kgEntity(target))
	c[target] = v
	return v
}

// scoreTable computes SemRel(Q, T) per Algorithm 1 and returns the score
// together with the time spent computing the query-to-column mapping μ
// (the cost fraction studied in Section 7.3). ci is the table's column
// pre-aggregation (nil builds a transient one). A table for which no query
// entity has any positive similarity scores 0 and is thereby excluded from
// results, satisfying Problem 2.2.
//
// All tuples are mapped first and scored second, so the clock is read once
// per table rather than twice per tuple; a warm scorer allocates nothing
// here.
func (s *scorer) scoreTable(t *table.Table, ci *table.ColumnIndex) (float64, time.Duration) {
	if t.NumRows() == 0 || t.NumColumns() == 0 {
		return 0, 0
	}
	if ci == nil {
		ci = table.BuildColumnIndex(t)
	}
	s.beginTable()
	start := time.Now()
	matched := false
	for ti := range s.q {
		// A tuple without a relevant mapping contributes 0.
		s.mapped[ti] = s.mapColumns(ti, ci) > 0
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
			total += s.tupleScore(ti, t, ci, s.assignment[ti])
		}
	}
	return total / float64(len(s.q)), mappingTime
}

// beginTable invalidates the per-table memoized column-score rows. Called
// by scoreTable before each table; callers driving mapColumns directly
// (tests) must call it when switching tables.
func (s *scorer) beginTable() {
	for di := range s.rowValid {
		s.rowValid[di] = false
	}
}

// columnScores returns, for distinct query entity di, the per-column sums
// of σ against every cell — one row of the score matrix S (Section 5.1).
// Rows are computed lazily per table via the column index (distinct
// entities × multiplicities instead of raw cells) and reused by every
// tuple of the query that mentions the entity, so wide queries with
// repeated entities pay for each σ row once.
func (s *scorer) columnScores(di int, ci *table.ColumnIndex) []float64 {
	if s.rowValid[di] {
		return s.rowScore[di]
	}
	row := s.rowScore[di][:0]
	for j := range ci.Cols {
		cs := &ci.Cols[j]
		sum := 0.0
		for i, e := range cs.Entities {
			sum += float64(cs.Counts[i]) * s.sigma(di, uint32(e))
		}
		row = append(row, sum)
	}
	s.rowScore[di] = row
	s.rowValid[di] = true
	return row
}

// mapColumns assembles the score matrix S (Section 5.1) for query tuple ti
// from the memoized per-entity column-score rows and solves the assignment
// problem, leaving the per-entity column assignments (-1 = unassigned) in
// s.assignment[ti] and returning the total assignment score. Tuple entities
// that repeat share one row (aliased, read-only under both solvers).
func (s *scorer) mapColumns(ti int, ci *table.ColumnIndex) float64 {
	slots := s.slots[ti]
	S := s.matrix[:len(slots)]
	for i, di := range slots {
		S[i] = s.columnScores(di, ci)
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
func (s *scorer) tupleScore(ti int, t *table.Table, ci *table.ColumnIndex, assignment []int) float64 {
	slots := s.slots[ti]
	var distSq float64
	for i := range slots {
		x := 0.0
		if j := assignment[i]; j >= 0 {
			x = s.aggregateColumn(slots[i], ci, j, t.NumRows())
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
// di against column j into one score per the configured aggregation,
// iterating the column's distinct entities with multiplicities instead of
// its raw cells.
func (s *scorer) aggregateColumn(di int, ci *table.ColumnIndex, j, numRows int) float64 {
	switch s.agg {
	case AggregateAvg:
		// The per-row σ sum of the column is exactly this entity's score-
		// matrix cell, already memoized by the mapping step.
		return s.columnScores(di, ci)[j] / float64(numRows)
	default: // AggregateMax
		best := 0.0
		for _, e := range ci.Cols[j].Entities {
			if v := s.sigma(di, uint32(e)); v > best {
				best = v
				if best >= 1 {
					return 1
				}
			}
		}
		return best
	}
}
