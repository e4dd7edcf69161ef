package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/table"
)

// stubSim is a σ stated pair by pair, symmetric, 1 on the diagonal and 0 for
// every pair it does not list.
type stubSim map[[2]kg.EntityID]float64

func (s stubSim) Score(a, b kg.EntityID) float64 {
	if a == b {
		return 1
	}
	if v, ok := s[[2]kg.EntityID{a, b}]; ok {
		return v
	}
	return s[[2]kg.EntityID{b, a}]
}

// randomSim relates about half of the pairs among n entities, at random
// strengths in (0, 1).
func randomSim(rng *rand.Rand, n int) stubSim {
	sim := stubSim{}
	for a := range n {
		for b := a + 1; b < n; b++ {
			if rng.Intn(2) == 0 {
				sim[[2]kg.EntityID{kg.EntityID(a), kg.EntityID(b)}] = rng.Float64()
			}
		}
	}
	return sim
}

// randomWeights is a deterministic I(e) in (0, 1] per entity.
func randomWeights(rng *rand.Rand, n int) func(kg.EntityID) float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.05 + 0.95*rng.Float64()
	}
	return func(e kg.EntityID) float64 { return w[e] }
}

func uniform(kg.EntityID) float64 { return 1 }

// randomTable has 1–6 columns and 1–8 rows over entities [0, n); about a
// quarter of the cells are unlinked, and entities repeat down a column.
func randomTable(rng *rand.Rand, n int) *table.Table {
	cols, rows := 1+rng.Intn(6), 1+rng.Intn(8)
	t := table.New("random", make([]string, cols))
	for range rows {
		cells := make([]table.Cell, cols)
		for c := range cells {
			cells[c] = table.Cell{Value: "v"}
			if rng.Intn(4) > 0 {
				cells[c] = table.LinkedCell("v", kg.EntityID(rng.Intn(1+rng.Intn(n))))
			}
		}
		t.AppendRow(cells)
	}
	return t
}

func randomQuery(rng *rand.Rand, n, tuples, width int) [][]kg.EntityID {
	q := make([][]kg.EntityID, tuples)
	for i := range q {
		for range width {
			q[i] = append(q[i], kg.EntityID(rng.Intn(n)))
		}
	}
	return q
}

// oneRow is a single-row table whose cells are ents, in order.
func oneRow(ents ...kg.EntityID) *table.Table {
	t := table.New("row", make([]string, len(ents)))
	cells := make([]table.Cell, len(ents))
	for i, e := range ents {
		cells[i] = table.LinkedCell("v", e)
	}
	t.AppendRow(cells)
	return t
}

// configs is every reading the oracle holds, under the given σ and weights.
func configs(sim Similarity, w func(kg.EntityID) float64) map[string]Config {
	out := map[string]Config{}
	for _, avg := range []bool{false, true} {
		for _, pairwise := range []bool{false, true} {
			for _, greedy := range []bool{false, true} {
				name := fmt.Sprintf("avg=%v/pairwise=%v/greedy=%v", avg, pairwise, greedy)
				out[name] = Config{Sim: sim, Weight: w, Avg: avg, Pairwise: pairwise, Greedy: greedy}
			}
		}
	}
	return out
}

// bestAssignmentTotal is the optimum of the column-mapping objective for
// one tuple by exhaustive search: every injective map of tuple entities to
// columns, entities left over when the table is narrower going unassigned.
func bestAssignmentTotal(S [][]float64, i int, used []bool) float64 {
	if i == len(S) {
		return 0
	}
	best := math.Inf(-1)
	free := 0
	for j := range used {
		if used[j] {
			continue
		}
		free++
		used[j] = true
		best = max(best, S[i][j]+bestAssignmentTotal(S, i+1, used))
		used[j] = false
	}
	// Skipping an entity is allowed only when columns are short.
	if remaining := len(S) - i; free < remaining {
		best = max(best, bestAssignmentTotal(S, i+1, used))
	}
	return best
}

// assignmentTotal checks that a maps tuple entities injectively into the
// columns of S and returns its objective.
func assignmentTotal(t *testing.T, S [][]float64, a []int) float64 {
	t.Helper()
	seen := map[int]bool{}
	total := 0.0
	for i, j := range a {
		if j < 0 {
			continue
		}
		if j >= len(S[i]) || seen[j] {
			t.Fatalf("assignment %v is not injective into %d columns", a, len(S[i]))
		}
		seen[j] = true
		total += S[i][j]
	}
	return total
}

// TestMappingIsOptimal checks µ against exhaustive search on generated
// tables: the Hungarian assignment reaches the optimum of the objective on
// the oracle's own S (within 1e-9: the two sums associate differently), and
// the greedy one is injective and never beats it.
func TestMappingIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 12
	sim := randomSim(rng, n)
	greedyBelow := 0
	for trial := range 300 {
		tb := randomTable(rng, n)
		q := randomQuery(rng, n, 1+rng.Intn(3), 1+rng.Intn(5))
		for _, greedy := range []bool{false, true} {
			c := Config{Sim: sim, Weight: uniform, Greedy: greedy}
			_, assignment := c.Score(tb, q)
			for ti, tq := range q {
				S := c.Matrix(tb, tq)
				got := assignmentTotal(t, S, assignment[ti])
				opt := bestAssignmentTotal(S, 0, make([]bool, tb.NumColumns()))
				switch {
				case !greedy && math.Abs(got-opt) > 1e-9:
					t.Fatalf("trial %d tuple %d: Hungarian %v totals %v, optimum %v", trial, ti, assignment[ti], got, opt)
				case got > opt+1e-9:
					t.Fatalf("trial %d tuple %d: greedy %v totals %v above the optimum %v", trial, ti, assignment[ti], got, opt)
				case greedy && got < opt-1e-9:
					greedyBelow++
				}
			}
		}
	}
	if greedyBelow == 0 {
		t.Fatal("greedy reached the optimum on every tuple: the comparison is vacuous")
	}
}

// TestScoreInUnitRange is the range half of §4 as a property: on generated
// tables, σ in [0, 1] and weights in (0, 1], every reading scores in [0, 1],
// and the entity-wise bound is at least the entity-wise score on the raw
// float64s (each of its steps is monotone in the column folds).
func TestScoreInUnitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 10
	for trial := range 200 {
		cs := configs(randomSim(rng, n), randomWeights(rng, n))
		tb := randomTable(rng, n)
		q := randomQuery(rng, n, 1+rng.Intn(4), 1+rng.Intn(4))
		for name, c := range cs {
			score, _ := c.Score(tb, q)
			if !(score >= 0 && score <= 1) {
				t.Fatalf("trial %d %s: SemRel %v outside [0, 1]", trial, name, score)
			}
			if !c.Pairwise && !(c.UpperBound(tb, q) >= score) {
				t.Fatalf("trial %d %s: bound %v below score %v", trial, name, c.UpperBound(tb, q), score)
			}
		}
	}
}

// TestAxiom1TotalExactMappingWins: a table where every query entity occurs
// scores 1, strictly above a table where one of them has nothing related.
// Generated single-row tables put the entities in random columns between
// distractors of random σ below 1.
func TestAxiom1TotalExactMappingWins(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := range 200 {
		width := 1 + rng.Intn(4)
		n := 2*width + 4
		sim := randomSim(rng, n)
		q := [][]kg.EntityID{{}}
		for _, e := range rng.Perm(n)[:width] {
			q[0] = append(q[0], kg.EntityID(e))
		}
		// Both tables hold distractors: entities outside the query. The one
		// without a relevant mapping for q[0][0] holds the rest of the query
		// and the distractors only where they are unrelated to q[0][0].
		exact := append([]kg.EntityID{}, q[0]...)
		var missing []kg.EntityID
		for e := range kg.EntityID(n) {
			if !slices.Contains(q[0], e) && rng.Intn(2) == 0 {
				exact = append(exact, e)
			}
			if e != q[0][0] && sim.Score(q[0][0], e) == 0 && rng.Intn(3) > 0 {
				missing = append(missing, e)
			}
		}
		shuffle(rng, exact)
		for name, c := range configs(sim, randomWeights(rng, n)) {
			if c.Greedy {
				continue // the axioms are about the optimal mapping
			}
			se, _ := c.Score(oneRow(exact...), q)
			sm, _ := c.Score(oneRow(missing...), q)
			if se != 1 || !(se > sm) {
				t.Fatalf("trial %d %s: total exact mapping scores %v, table without one %v", trial, name, se, sm)
			}
		}
	}
}

// TestAxiom2LargerExactMappingWins: with dom(µ₂) ⊆ dom(µ₁), the table whose
// exact mapping covers more of the query scores at least as high, on
// generated single-row tables with unrelated fillers.
func TestAxiom2LargerExactMappingWins(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := range 200 {
		width := 2 + rng.Intn(4)
		q := [][]kg.EntityID{{}}
		for e := range width {
			q[0] = append(q[0], kg.EntityID(e))
		}
		s1 := 1 + rng.Intn(width)
		s2 := 1 + rng.Intn(s1)
		// Fillers width, width+1, … relate to nothing (stubSim's default 0).
		build := func(s int) *table.Table {
			ents := append([]kg.EntityID{}, q[0][:s]...)
			for k := range rng.Intn(width + 1) {
				ents = append(ents, kg.EntityID(width+k))
			}
			shuffle(rng, ents)
			return oneRow(ents...)
		}
		t1, t2 := build(s1), build(s2)
		for name, c := range configs(stubSim{}, randomWeights(rng, width)) {
			if c.Greedy {
				continue
			}
			v1, _ := c.Score(t1, q)
			v2, _ := c.Score(t2, q)
			if v1 < v2 || s1 > s2 && !(v1 > v2) {
				t.Fatalf("trial %d %s: |dom µ₁| = %d scores %v, |dom µ₂| = %d scores %v", trial, name, s1, v1, s2, v2)
			}
		}
	}
}

// TestAxiom3StrongerSimilaritiesWin: if every query entity is strictly more
// similar to its counterpart in T₁ than in T₂, T₁ scores strictly higher, on
// generated single-row tables with the counterparts in random columns.
func TestAxiom3StrongerSimilaritiesWin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := range 200 {
		width := 1 + rng.Intn(4)
		sim := stubSim{}
		q := [][]kg.EntityID{{}}
		var strong, weak []kg.EntityID
		for i := range width {
			e, s, w := kg.EntityID(3*i), kg.EntityID(3*i+1), kg.EntityID(3*i+2)
			q[0] = append(q[0], e)
			strong, weak = append(strong, s), append(weak, w)
			lo := 0.01 + 0.5*rng.Float64()
			sim[[2]kg.EntityID{e, w}] = lo
			sim[[2]kg.EntityID{e, s}] = lo + (1-lo)*(0.01+0.98*rng.Float64())
		}
		shuffle(rng, strong)
		shuffle(rng, weak)
		for name, c := range configs(sim, randomWeights(rng, 3*width)) {
			if c.Greedy {
				continue
			}
			v1, _ := c.Score(oneRow(strong...), q)
			v2, _ := c.Score(oneRow(weak...), q)
			if !(v1 > v2) {
				t.Fatalf("trial %d %s: stronger table %v, weaker %v", trial, name, v1, v2)
			}
		}
	}
}

// TestPairwiseReading pins the pairwise reading to the entity-wise one
// where Equation 1 says they meet: on a one-row table, folding rows and
// folding columns are the same fold of one value, so the scores are equal
// bit for bit; and under MAX no row beats the per-entity maxima taken from
// different rows, so pairwise never scores above entity-wise.
func TestPairwiseReading(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 10
	below := 0
	for trial := range 300 {
		sim, w := randomSim(rng, n), randomWeights(rng, n)
		tb := randomTable(rng, n)
		q := randomQuery(rng, n, 1+rng.Intn(3), 1+rng.Intn(4))
		for _, avg := range []bool{false, true} {
			ew := Config{Sim: sim, Weight: w, Avg: avg}
			pw := Config{Sim: sim, Weight: w, Avg: avg, Pairwise: true}
			entity, a := ew.Score(tb, q)
			pair := pw.ScoreAssigned(tb, q, a)
			switch {
			case tb.NumRows() == 1 && pair != entity:
				t.Fatalf("trial %d avg=%v: one row scores %v pairwise, %v entity-wise", trial, avg, pair, entity)
			case !avg && pair > entity:
				t.Fatalf("trial %d: pairwise MAX %v above entity-wise MAX %v", trial, pair, entity)
			case !avg && pair < entity:
				below++
			}
		}
	}
	if below == 0 {
		t.Fatal("pairwise never scored below entity-wise: the comparison is vacuous")
	}
}

// TestRank: a ranking holds every live table scoring above 0 once, by
// descending score and ascending ID on ties, and carries each table's µ.
func TestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 10
	g := kg.NewGraph()
	for e := range n {
		g.AddEntity(fmt.Sprintf("e%d", e), "")
	}
	l := lake.New(g)
	for range 30 {
		tb := randomTable(rng, n)
		l.Add(tb)
		l.Add(tb.Clone()) // a twin: equal scores, tie broken by ID
	}
	l.Remove(5)
	c := Config{Sim: randomSim(rng, n), Weight: uniform}
	q := randomQuery(rng, n, 2, 3)
	ranked := c.Rank(l, q)
	if len(ranked) < 20 {
		t.Fatalf("%d tables ranked of 59", len(ranked))
	}
	for i, r := range ranked {
		if r.Table == 5 {
			t.Fatal("a removed table was ranked")
		}
		if want, a := c.Score(l.Table(r.Table), q); r.Score != want || fmt.Sprint(a) != fmt.Sprint(r.Assignment) {
			t.Fatalf("table %d: ranked %v under %v, scores %v under %v", r.Table, r.Score, r.Assignment, want, a)
		}
		if i > 0 && (ranked[i-1].Score < r.Score || ranked[i-1].Score == r.Score && ranked[i-1].Table > r.Table) {
			t.Fatalf("rank %d out of order: %+v after %+v", i, r, ranked[i-1])
		}
	}
}

// TestTypeJaccard is Equation 4 by hand on a taxonomy where sub ⊂ top.
func TestTypeJaccard(t *testing.T) {
	g := kg.NewGraph()
	top, sub, other := g.AddType("top", ""), g.AddType("sub", ""), g.AddType("other", "")
	g.AddSubtype(sub, top)
	a, b, c, d, untyped := g.AddEntity("a", ""), g.AddEntity("b", ""), g.AddEntity("c", ""), g.AddEntity("d", ""), g.AddEntity("u", "")
	g.AssignType(a, sub)   // {sub, top}
	g.AssignType(b, sub)   // {sub, top}
	g.AssignType(c, top)   // {top}
	g.AssignType(d, other) // {other}
	tj := NewTypeJaccard(g)
	late := g.AddEntity("late", "")
	g.AssignType(late, sub)
	for _, tc := range []struct {
		x, y kg.EntityID
		want float64
	}{
		{a, a, 1}, {untyped, untyped, 1},
		{a, b, MaxJaccard}, // equal sets, capped
		{a, c, 0.5}, {c, a, 0.5},
		{a, d, 0}, {a, untyped, 0},
		{a, late, 0}, // typed after construction
	} {
		if got := tj.Score(tc.x, tc.y); got != tc.want {
			t.Errorf("σ(%d, %d) = %v, want %v", tc.x, tc.y, got, tc.want)
		}
	}
}

// TestAgree is the score half of the comparison rule.
func TestAgree(t *testing.T) {
	x := 0.7
	if !Agree(false, x, x) || Agree(false, x, math.Nextafter(x, 1)) {
		t.Error("MAX must agree bit for bit")
	}
	if !Agree(true, x, x+Tolerance/2) || Agree(true, x, x+2*Tolerance) {
		t.Error("AVG must agree within Tolerance and no further")
	}
}

// TestAgreeRanking is the ranking half of the rule: the same table at every
// rank; under AVG alone, two tables whose oracle scores agree within
// Tolerance may trade places, but not across the top-k cut.
func TestAgreeRanking(t *testing.T) {
	x := 0.7
	near := x - Tolerance/2 // agrees with x under AVG only
	// Tables 1 and 2 tie exactly and straddle k = 2; table 3 is within
	// Tolerance of them.
	oracleRanking := []Ranked{{Table: 0, Score: 0.9}, {Table: 1, Score: x}, {Table: 2, Score: x}, {Table: 3, Score: near}}
	r := func(pairs ...float64) []Ranked {
		var out []Ranked
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, Ranked{Table: lake.TableID(pairs[i]), Score: pairs[i+1]})
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		avg   bool
		got   []Ranked
		k     int
		agree bool
	}{
		{"identical", false, r(0, 0.9, 1, x, 2, x, 3, near), -1, true},
		{"identical-top-2", false, r(0, 0.9, 1, x), 2, true},
		{"max-tied-swap", false, r(0, 0.9, 2, x, 1, x, 3, near), -1, false},
		{"avg-tied-swap", true, r(0, 0.9, 2, x, 1, x, 3, near), -1, true},
		{"avg-near-swap", true, r(0, 0.9, 1, x, 3, near, 2, x), -1, true},
		{"max-tie-across-cut", false, r(0, 0.9, 2, x), 2, false},
		{"avg-tie-across-cut", true, r(0, 0.9, 2, x), 2, false},
		{"avg-rounded-score", true, r(0, 0.9, 1, x+Tolerance/2), 2, true},
		{"max-rounded-score", false, r(0, 0.9, 1, math.Nextafter(x, 1)), 2, false},
		{"avg-swap-past-tolerance", true, r(1, x, 0, 0.9), 2, false},
		{"ranked-twice", true, r(0, 0.9, 1, x, 1, x), 3, false},
		{"short", false, r(0, 0.9), 2, false},
		{"long", false, r(0, 0.9, 1, x, 2, x), 2, false},
	} {
		if err := AgreeRanking(tc.avg, tc.got, oracleRanking, tc.k); (err == nil) != tc.agree {
			t.Errorf("%s: AgreeRanking = %v, want agreement %v", tc.name, err, tc.agree)
		}
	}
}

func shuffle(rng *rand.Rand, xs []kg.EntityID) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}
