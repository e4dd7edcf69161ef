// Package hungarian solves the linear assignment problem with the Hungarian
// method (Kuhn–Munkres, potentials formulation, O(n²·m) for an n×m matrix
// with n ≤ m; the transpose is solved when n > m). Thetis uses it to map
// query-tuple entities to table columns such that the summed
// column-relevance score is maximized — the mapping µ of Section 5.1 of the
// paper, whose optimality the greedy-mapping ablation (core.MappingGreedy)
// quantifies.
//
// The solver is exact and deterministic, which matters beyond correctness:
// the scoring pipeline memoizes entity similarities across workers
// (core.SigmaCache) under the guarantee that identical inputs produce
// identical assignments, so ranked results cannot depend on scheduling.
// Callers hand the same score-matrix rows to repeated solves (rows may
// alias each other when query tuples repeat entities); the solver treats
// the matrix as read-only.
package hungarian

import "math"

// Maximize finds an assignment of rows to columns of the score matrix that
// maximizes the total score, assigning each row to at most one column and
// each column to at most one row. It returns, for each row, the assigned
// column index, or -1 when the row is unassigned (possible only when there
// are more rows than columns). All rows of score must have equal length.
//
// The solver is exact; negative scores are allowed. An empty matrix yields
// an empty assignment.
func Maximize(score [][]float64) []int {
	return new(Solver).Maximize(score)
}

// Solver is a reusable workspace for Maximize: it owns the potentials, the
// augmenting-path scratch and the output slice, grown on demand and reused
// across calls, so a caller solving many small problems in a loop (one per
// query tuple per table) allocates nothing in steady state. The zero value
// is ready to use. A Solver is not safe for concurrent use.
type Solver struct {
	floats []float64 // u | v | minv | col
	ints   []int     // p | way | out
	used   []bool
}

// Maximize is the package-level Maximize on this solver's workspace. The
// returned slice is owned by the solver and valid until the next call on
// the same Solver; copy it to keep it.
func (s *Solver) Maximize(score [][]float64) []int {
	rows := len(score)
	if rows == 0 {
		return nil
	}
	// The dual method below assigns every row of an n×m problem with
	// n ≤ m. More rows than columns: solve the transpose, reading column
	// i of score as row i of the problem (gathered into col, once per
	// augmenting step), and invert the mapping on the way out.
	n, m := rows, len(score[0])
	transposed := n > m
	if transposed {
		n, m = m, n
	}

	s.floats = grow(s.floats, (n+1)+2*(m+1)+m)
	s.ints = grow(s.ints, 2*(m+1)+rows)
	s.used = grow(s.used, m+1)
	u, v, minv, col := s.floats[:n+1], s.floats[n+1:n+m+2], s.floats[n+m+2:n+2*m+3], s.floats[n+2*m+3:]
	p, way, out := s.ints[:m+1], s.ints[m+1:2*m+2], s.ints[2*m+2:]
	used := s.used
	clear(s.floats[:n+m+2]) // u, v; minv is reset per row below
	clear(p)                // way is written before it is read in every row
	for i := range out {
		out[i] = -1
	}

	// Min-cost assignment on cost = -score, dual (potentials) formulation:
	// u/v are row/column potentials kept feasible (u[i]+v[j] ≤ cost[i][j]);
	// each outer iteration grows the matching by one row via a shortest
	// augmenting path over reduced costs (minv tracks the frontier, way the
	// path). 1-based indexing with column 0 as the virtual start keeps the
	// augmenting walk branch-free. p[j] is the row (1-based) currently
	// matched to column j, 0 = free; way[j] the previous column on the path.
	const inf = math.MaxFloat64
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			row := col
			if transposed {
				for j := range row {
					row[j] = score[j][i0-1]
				}
			} else {
				row = score[i0-1][:m]
			}
			ui := u[i0]
			delta := inf
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := -row[j-1] - ui - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	for j := 1; j <= m; j++ {
		if p[j] == 0 {
			continue
		}
		if transposed {
			out[j-1] = p[j] - 1
		} else {
			out[p[j]-1] = j - 1
		}
	}
	return out
}

// grow returns s resliced to n elements, reallocating only when its
// capacity is short. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// TotalScore sums the score of an assignment over the given matrix:
// Σ score[i][assignment[i]] across assigned rows (unassigned rows, -1,
// contribute nothing). It accepts any assignment shape Maximize or a
// greedy alternative produces, so ablations can compare solvers on the
// same objective.
func TotalScore(score [][]float64, assignment []int) float64 {
	var total float64
	for i, j := range assignment {
		if j >= 0 {
			total += score[i][j]
		}
	}
	return total
}
