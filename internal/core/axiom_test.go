package core

import (
	"math/rand"
	"testing"

	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/table"
)

// stubSim is a fully controllable σ for axiom tests: identity is 1,
// everything else comes from an explicit symmetric map (default 0).
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

// axiomFixture builds a graph with n plain entities and a lake factory.
func axiomFixture(n int) (*kg.Graph, []kg.EntityID) {
	g := kg.NewGraph()
	ents := make([]kg.EntityID, n)
	for i := range ents {
		ents[i] = g.AddEntity(string(rune('a'+i)), "")
	}
	return g, ents
}

func singleRowTable(name string, ents []kg.EntityID, g *kg.Graph) *table.Table {
	attrs := make([]string, len(ents))
	cells := make([]table.Cell, len(ents))
	for i, e := range ents {
		attrs[i] = string(rune('A' + i))
		cells[i] = table.LinkedCell(g.Label(e), e)
	}
	t := table.New(name, attrs)
	t.AppendRow(cells)
	return t
}

func scoreOf(t *testing.T, results []Result, id lake.TableID) float64 {
	t.Helper()
	for _, r := range results {
		if r.Table == id {
			return r.Score
		}
	}
	return 0
}

// Axiom 1: a total exact mapping scores strictly above any table with no
// relevant mapping for some entity (unrelated content).
func TestAxiom1TotalExactBeatsUnrelated(t *testing.T) {
	g, e := axiomFixture(6)
	sim := stubSim{
		// e3 is weakly related to e0; e4/e5 unrelated to everything.
		{e[0], e[3]}: 0.4,
	}
	l := lake.New(g)
	exact := l.Add(singleRowTable("exact", []kg.EntityID{e[0], e[1]}, g))
	partial := l.Add(singleRowTable("partial", []kg.EntityID{e[3], e[4]}, g))

	eng := &Engine{Lake: l, Sim: sim, Inf: UniformInformativeness, Agg: AggregateMax}
	q := Query{Tuple{e[0], e[1]}}
	res, _ := eng.Search(q, -1)
	se, sp := scoreOf(t, res, exact), scoreOf(t, res, partial)
	if se != 1 {
		t.Errorf("total exact mapping score = %v, want 1", se)
	}
	if !(se > sp) {
		t.Errorf("axiom 1 violated: exact %v <= partial %v", se, sp)
	}
}

// Axiom 2: with dom(µ2) ⊆ dom(µ1), the larger exact mapping scores at
// least as high, for any random query over random exact subsets.
func TestAxiom2LargerExactMappingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		width := 2 + rng.Intn(4)
		g, e := axiomFixture(width)
		q := Query{Tuple(append([]kg.EntityID(nil), e...))}

		// Random subset sizes s2 <= s1 of exactly-matched entities.
		s1 := 1 + rng.Intn(width)
		s2 := 1 + rng.Intn(s1)
		l := lake.New(g)
		t1 := l.Add(singleRowTable("t1", e[:s1], g))
		t2 := l.Add(singleRowTable("t2", e[:s2], g))

		eng := &Engine{Lake: l, Sim: stubSim{}, Inf: UniformInformativeness, Agg: AggregateMax}
		res, _ := eng.Search(q, -1)
		v1, v2 := scoreOf(t, res, t1), scoreOf(t, res, t2)
		if v1 < v2-1e-12 {
			t.Fatalf("trial %d: axiom 2 violated: |dom|=%d scored %v < |dom|=%d scored %v",
				trial, s1, v1, s2, v2)
		}
	}
}

// Axiom 3: if every mapped entity is strictly more similar in T1 than in
// T2, then SemRel(T1) > SemRel(T2).
func TestAxiom3StrongerSimilaritiesWin(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		width := 1 + rng.Intn(4)
		g, e := axiomFixture(3 * width)
		query := e[:width]
		strong := e[width : 2*width]
		weak := e[2*width : 3*width]

		sim := stubSim{}
		for i := 0; i < width; i++ {
			hi := 0.5 + rng.Float64()*0.5 // (0.5, 1)
			lo := 0.01 + rng.Float64()*0.4
			sim[[2]kg.EntityID{query[i], strong[i]}] = hi
			sim[[2]kg.EntityID{query[i], weak[i]}] = lo
		}
		l := lake.New(g)
		t1 := l.Add(singleRowTable("strong", strong, g))
		t2 := l.Add(singleRowTable("weak", weak, g))

		eng := &Engine{Lake: l, Sim: sim, Inf: UniformInformativeness, Agg: AggregateMax}
		res, _ := eng.Search(Query{Tuple(query)}, -1)
		v1, v2 := scoreOf(t, res, t1), scoreOf(t, res, t2)
		if !(v1 > v2) {
			t.Fatalf("trial %d: axiom 3 violated: strong %v <= weak %v", trial, v1, v2)
		}
	}
}

// Section 4.1's asymmetry requirement: for t2 ⊂ t1, SemRel(query=t1,
// table=t2) <= SemRel(query=t2, table=t1).
func TestSubsetQueryAsymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		width := 2 + rng.Intn(4)
		g, e := axiomFixture(width)
		sub := 1 + rng.Intn(width-1)

		lBig := lake.New(g)
		bigID := lBig.Add(singleRowTable("big", e, g))
		lSmall := lake.New(g)
		smallID := lSmall.Add(singleRowTable("small", e[:sub], g))

		engBig := &Engine{Lake: lBig, Sim: stubSim{}, Inf: UniformInformativeness, Agg: AggregateMax}
		engSmall := &Engine{Lake: lSmall, Sim: stubSim{}, Inf: UniformInformativeness, Agg: AggregateMax}

		// Query = subset tuple against the superset table: perfect.
		rSub, _ := engBig.Search(Query{Tuple(e[:sub])}, -1)
		// Query = superset tuple against the subset table: partial.
		rSup, _ := engSmall.Search(Query{Tuple(e)}, -1)

		vSub := scoreOf(t, rSub, bigID)
		vSup := scoreOf(t, rSup, smallID)
		if vSup > vSub+1e-12 {
			t.Fatalf("trial %d: asymmetry violated: SemRel(t1,t2)=%v > SemRel(t2,t1)=%v",
				trial, vSup, vSub)
		}
		if vSub != 1 {
			t.Fatalf("trial %d: subset query against superset table = %v, want 1", trial, vSub)
		}
	}
}

// SemRel is always within (0, 1] for returned tables, for random σ values,
// random tables, and random informativeness weights.
func TestSemRelRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 150; trial++ {
		n := 4 + rng.Intn(8)
		g, e := axiomFixture(n)
		sim := stubSim{}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					sim[[2]kg.EntityID{e[i], e[j]}] = rng.Float64()
				}
			}
		}
		l := lake.New(g)
		for tbl := 0; tbl < 4; tbl++ {
			width := 1 + rng.Intn(3)
			tt := table.New("t", make([]string, width))
			for r := 0; r < 1+rng.Intn(4); r++ {
				cells := make([]table.Cell, width)
				for c := range cells {
					if rng.Float64() < 0.7 {
						cells[c] = table.LinkedCell("x", e[rng.Intn(n)])
					} else {
						cells[c] = table.Cell{Value: "lit"}
					}
				}
				tt.AppendRow(cells)
			}
			l.Add(tt)
		}
		inf := func(kg.EntityID) float64 { return 0.1 + 0.9*rng.Float64() }
		// Informativeness must be deterministic per entity: memoize.
		memo := map[kg.EntityID]float64{}
		infm := func(x kg.EntityID) float64 {
			if v, ok := memo[x]; ok {
				return v
			}
			v := inf(x)
			memo[x] = v
			return v
		}
		agg := AggregateMax
		if rng.Intn(2) == 0 {
			agg = AggregateAvg
		}
		eng := &Engine{Lake: l, Sim: sim, Inf: infm, Agg: agg, Parallelism: 1}
		q := Query{Tuple{e[rng.Intn(n)], e[rng.Intn(n)]}}
		res, _ := eng.Search(q, -1)
		for _, r := range res {
			if r.Score <= 0 || r.Score > 1+1e-12 {
				t.Fatalf("trial %d: SemRel %v out of (0,1]", trial, r.Score)
			}
		}
	}
}
