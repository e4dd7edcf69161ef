package hungarian

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestMaximizeIdentity(t *testing.T) {
	score := [][]float64{
		{1, 0, 0},
		{0, 1, 0},
		{0, 0, 1},
	}
	got := Maximize(score)
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("assignment = %v, want %v", got, want)
		}
	}
	if s := TotalScore(score, got); s != 3 {
		t.Errorf("total = %v, want 3", s)
	}
}

func TestMaximizePrefersBestPermutation(t *testing.T) {
	// Greedy (row 0 -> col 0) is suboptimal here.
	score := [][]float64{
		{10, 9},
		{9, 1},
	}
	got := Maximize(score)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("assignment = %v, want [1 0] (total 18 > 11)", got)
	}
}

func TestMaximizeRectangularWide(t *testing.T) {
	// 2 rows, 4 columns: both rows assigned, distinct columns.
	score := [][]float64{
		{0.1, 0.9, 0.2, 0.3},
		{0.2, 0.8, 0.1, 0.7},
	}
	got := Maximize(score)
	if got[0] == got[1] {
		t.Fatalf("two rows assigned the same column: %v", got)
	}
	if s := TotalScore(score, got); math.Abs(s-1.6) > 1e-12 {
		t.Errorf("total = %v, want 1.6 (row0->1, row1->3)", s)
	}
}

func TestMaximizeRectangularTall(t *testing.T) {
	// 3 rows, 1 column: only one row can be assigned — the best one.
	score := [][]float64{{0.2}, {0.9}, {0.5}}
	got := Maximize(score)
	assigned := 0
	for i, j := range got {
		if j >= 0 {
			assigned++
			if i != 1 {
				t.Errorf("assigned row %d, want row 1 (score 0.9)", i)
			}
		}
	}
	if assigned != 1 {
		t.Fatalf("assignment = %v, want exactly one assigned row", got)
	}
}

func TestMaximizeEmpty(t *testing.T) {
	if got := Maximize(nil); got != nil {
		t.Errorf("Maximize(nil) = %v", got)
	}
	got := Maximize([][]float64{{}, {}})
	if len(got) != 2 || got[0] != -1 || got[1] != -1 {
		t.Errorf("Maximize(zero columns) = %v, want [-1 -1]", got)
	}
}

func TestMaximizeNegativeScores(t *testing.T) {
	score := [][]float64{
		{-1, -5},
		{-5, -1},
	}
	got := Maximize(score)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("assignment = %v, want [0 1]", got)
	}
}

// bruteForceBest enumerates all injective assignments and returns the best
// total score. Rows may stay unassigned only when rows > cols.
func bruteForceBest(score [][]float64) float64 {
	n := len(score)
	if n == 0 {
		return 0
	}
	m := len(score[0])
	best := math.Inf(-1)
	usedCols := make([]bool, m)
	var rec func(row int, total float64, assigned int)
	rec = func(row int, total float64, assigned int) {
		if row == n {
			// A valid solution must assign min(n, m) rows.
			if assigned == minInt(n, m) && total > best {
				best = total
			}
			return
		}
		// Option: leave row unassigned (only useful when n > m).
		rec(row+1, total, assigned)
		for j := 0; j < m; j++ {
			if !usedCols[j] {
				usedCols[j] = true
				rec(row+1, total+score[row][j], assigned+1)
				usedCols[j] = false
			}
		}
	}
	rec(0, 0, 0)
	return best
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestMaximizeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// One Solver reused across every trial, next to the fresh-workspace
	// Maximize: shapes arrive in random order (n < m, n = m, n > m, m = 0),
	// so its workspace both grows and shrinks and every carve-up of the
	// scratch must agree with a fresh one.
	var reused Solver
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(5)
		m := rng.Intn(6)
		negative := trial%4 == 3
		score := make([][]float64, n)
		for i := range score {
			score[i] = make([]float64, m)
			for j := range score[i] {
				score[i][j] = math.Round(rng.Float64()*100) / 100
				if negative {
					score[i][j] -= 0.5
				}
			}
		}
		got := Maximize(score)
		if len(got) != n {
			t.Fatalf("trial %d (%dx%d): %d assignments, want %d", trial, n, m, len(got), n)
		}
		// Validity: injective, in range.
		seen := map[int]bool{}
		for _, j := range got {
			if j < -1 || j >= m {
				t.Fatalf("trial %d: column out of range: %v", trial, got)
			}
			if j >= 0 {
				if seen[j] {
					t.Fatalf("trial %d: column %d assigned twice: %v", trial, j, got)
				}
				seen[j] = true
			}
		}
		want := bruteForceBest(score)
		if diff := math.Abs(TotalScore(score, got) - want); diff > 1e-9 {
			t.Fatalf("trial %d (%dx%d): total %v, brute force %v, matrix %v",
				trial, n, m, TotalScore(score, got), want, score)
		}
		if again := reused.Maximize(score); !slices.Equal(again, got) {
			t.Fatalf("trial %d (%dx%d): reused solver %v, fresh %v, matrix %v",
				trial, n, m, again, got, score)
		}
	}
}

func TestMaximizeAssignsAllRowsWhenPossible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(4)
		m := n + rng.Intn(4) // m >= n
		score := make([][]float64, n)
		for i := range score {
			score[i] = make([]float64, m)
			for j := range score[i] {
				score[i][j] = rng.Float64()
			}
		}
		got := Maximize(score)
		for i, j := range got {
			if j < 0 {
				t.Fatalf("trial %d: row %d unassigned with m >= n: %v", trial, i, got)
			}
		}
	}
}

func benchMatrix(n, m int) [][]float64 {
	rng := rand.New(rand.NewSource(1))
	score := make([][]float64, n)
	for i := range score {
		score[i] = make([]float64, m)
		for j := range score[i] {
			score[i][j] = rng.Float64()
		}
	}
	return score
}

var benchSink []int

func BenchmarkMaximize10x20(b *testing.B) {
	score := benchMatrix(10, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Maximize(score)
	}
}

// The reused-workspace cases: the scoring loop's shape (a three-entity query
// tuple against a six-column table) and the wide one above. -benchmem must
// show 0 allocs/op.
func BenchmarkSolver3x6(b *testing.B)   { benchSolver(b, 3, 6) }
func BenchmarkSolver10x20(b *testing.B) { benchSolver(b, 10, 20) }

func benchSolver(b *testing.B, n, m int) {
	score := benchMatrix(n, m)
	var s Solver
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = s.Maximize(score)
	}
}
