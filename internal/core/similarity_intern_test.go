package core

import (
	"fmt"
	"math"
	"testing"

	"thetis/internal/kg"
	"thetis/internal/oracle"
)

// internFixture builds a graph with extraTypes padding types beyond the
// ones entities actually use, so the same entity/type structure can be
// evaluated under both the bitset (small taxonomy) and linear-merge (large
// taxonomy) intersection paths.
func internFixture(extraTypes int) *kg.Graph {
	g := kg.NewGraph()
	ts := make([]kg.TypeID, 6)
	for i := range ts {
		ts[i] = g.AddType(fmt.Sprintf("t%d", i), "")
	}
	for i := 0; i < extraTypes; i++ {
		g.AddType(fmt.Sprintf("pad%d", i), "")
	}
	add := func(types ...kg.TypeID) kg.EntityID {
		e := g.AddEntity(fmt.Sprintf("e%d", g.NumEntities()), "")
		for _, t := range types {
			g.AssignType(e, t)
		}
		return e
	}
	add(ts[0], ts[1], ts[2]) // e0
	add(ts[0], ts[1], ts[2]) // e1: same set as e0
	add(ts[1], ts[2], ts[3]) // e2: Jaccard 2/4 with e0
	add(ts[4])               // e3: disjoint from e0
	add()                    // e4: untyped
	return g
}

func TestTypeJaccardInternsDuplicateSets(t *testing.T) {
	tj := NewTypeJaccard(internFixture(0))
	s0, s1 := tj.TypeSet(0), tj.TypeSet(1)
	if len(s0) == 0 || &s0[0] != &s1[0] {
		t.Fatal("entities with equal type sets must share one canonical slice")
	}
	if tj.SetID(0) != tj.SetID(1) {
		t.Fatalf("SetID(0)=%d != SetID(1)=%d for equal sets", tj.SetID(0), tj.SetID(1))
	}
	if tj.SetID(0) == tj.SetID(2) {
		t.Fatal("different sets share a SetID")
	}
	if tj.SetID(4) != -1 {
		t.Fatalf("untyped entity SetID = %d, want -1", tj.SetID(4))
	}
	if tj.SetID(kg.EntityID(999)) != -1 {
		t.Fatal("out-of-range SetID must be -1")
	}
	// e0/e1, e2, e3 — three distinct non-empty sets.
	if tj.NumTypeSets() != 3 {
		t.Fatalf("NumTypeSets = %d, want 3", tj.NumTypeSets())
	}
	// Same set ID short-circuits to the cap without an element walk.
	if got := tj.Score(0, 1); got != MaxJaccard {
		t.Fatalf("equal-set score = %v, want %v", got, MaxJaccard)
	}
}

// The bitset popcount path (taxonomy ≤ bitsetMaxTypes) and the linear
// merge path (larger taxonomies) must agree exactly on every pair.
func TestTypeJaccardBitsetMatchesMerge(t *testing.T) {
	small := NewTypeJaccard(internFixture(0))
	big := NewTypeJaccard(internFixture(bitsetMaxTypes)) // pushes NumTypes past the bitset bound
	for a := kg.EntityID(0); a < 5; a++ {
		for b := kg.EntityID(0); b < 5; b++ {
			if sv, bv := small.Score(a, b), big.Score(a, b); sv != bv {
				t.Errorf("Score(%d,%d): bitset %v != merge %v", a, b, sv, bv)
			}
		}
	}
	if got, want := small.Score(0, 2), 0.5; got != want {
		t.Errorf("Score(0,2) = %v, want %v (|∩|=2, |∪|=4)", got, want)
	}
	if got := small.Score(0, 3); got != 0 {
		t.Errorf("disjoint sets score = %v, want 0", got)
	}
}

// TestTypeJaccardMatchesEquation4 checks TypeJaccard against the oracle's
// Equation 4, computed from the graph's taxonomy-expanded type sets with
// plain maps, bit for bit on every ordered pair of generated KGs: Score, and
// for a ≠ b the keyed read scoreKey(a, key(b)) the σ cache stores. Both the
// bitset and the linear-merge intersection run, and an entity typed after
// construction counts as untyped on both sides.
func TestTypeJaccardMatchesEquation4(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		_, g := randomCorpus(seed, 4+int(seed)*6, 60, 0, 0, 0)
		if seed%2 == 0 {
			for i := 0; i < bitsetMaxTypes; i++ {
				g.AddType(fmt.Sprintf("pad%d", i), "")
			}
		}
		tj, eq4 := NewTypeJaccard(g), oracle.NewTypeJaccard(g)
		late := g.AddEntity("late", "")
		g.AssignType(late, 0)
		typed := 0
		for a := kg.EntityID(0); int(a) < g.NumEntities(); a++ {
			for b := kg.EntityID(0); int(b) < g.NumEntities(); b++ {
				want := eq4.Score(a, b)
				if got := tj.Score(a, b); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d: Score(%d, %d) = %v, Equation 4 %v", seed, a, b, got, want)
				}
				if a == b {
					continue
				}
				if got := tj.scoreKey(a, tj.key(b)); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d: scoreKey(%d, key(%d)) = %v, Equation 4 %v", seed, a, b, got, want)
				}
				if want > 0 && want < MaxJaccard {
					typed++
				}
			}
		}
		if typed == 0 {
			t.Fatalf("seed %d: no pair scored strictly between 0 and the cap: the comparison is vacuous", seed)
		}
	}
}
