package core_test

// Runnable godoc examples for the two central entry points: configuring an
// Engine and searching (Algorithm 1), and prefiltering the search space
// with a type-based LSEI (Section 6). `go test` verifies the outputs.

import (
	"fmt"

	"thetis/internal/core"
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/table"
)

// exampleLake builds a miniature semantic data lake in the spirit of the
// paper's Figure 1: a taxonomy of sports types, a handful of linked
// entities, and four tables of varying relevance to a baseball query.
func exampleLake() (*lake.Lake, *kg.Graph, core.Query) {
	g := kg.NewGraph()
	thing := g.AddType("Thing", "")
	athlete := g.AddType("Athlete", "")
	team := g.AddType("SportsTeam", "")
	bp := g.AddType("BaseballPlayer", "")
	bt := g.AddType("BaseballTeam", "")
	vp := g.AddType("VolleyballPlayer", "")
	vt := g.AddType("VolleyballTeam", "")
	city := g.AddType("City", "")
	g.AddSubtype(athlete, thing)
	g.AddSubtype(team, thing)
	g.AddSubtype(bp, athlete)
	g.AddSubtype(bt, team)
	g.AddSubtype(vp, athlete)
	g.AddSubtype(vt, team)
	g.AddSubtype(city, thing)

	ent := func(uri, label string, t kg.TypeID) kg.EntityID {
		e := g.AddEntity(uri, label)
		g.AssignType(e, t)
		return e
	}
	santo := ent("santo", "Ron Santo", bp)
	stetter := ent("stetter", "Mitch Stetter", bp)
	cubs := ent("cubs", "Chicago Cubs", bt)
	brewers := ent("brewers", "Milwaukee Brewers", bt)
	volley := ent("volley", "Vera Volley", vp)
	smash := ent("smash", "Smash City", vt)
	chicago := ent("chicago", "Chicago", city)
	milwaukee := ent("milwaukee", "Milwaukee", city)

	l := lake.New(g)
	cell := func(e kg.EntityID) table.Cell { return table.LinkedCell(g.Label(e), e) }

	roster := table.New("roster", []string{"Player", "Team"})
	roster.AppendRow([]table.Cell{cell(santo), cell(cubs)})
	l.Add(roster)

	transfers := table.New("transfers", []string{"Player", "From"})
	transfers.AppendRow([]table.Cell{cell(stetter), cell(brewers)})
	l.Add(transfers)

	volleyball := table.New("volleyball", []string{"Player", "Team"})
	volleyball.AppendRow([]table.Cell{cell(volley), cell(smash)})
	l.Add(volleyball)

	cities := table.New("cities", []string{"City"})
	cities.AppendRow([]table.Cell{cell(chicago)})
	cities.AppendRow([]table.Cell{cell(milwaukee)})
	l.Add(cities)

	return l, g, core.Query{core.Tuple{santo, cubs}}
}

// ExampleNewEngine configures the recommended engine (type similarity, IDF
// informativeness, MAX aggregation) and ranks every table against the
// query ⟨Ron Santo, Chicago Cubs⟩.
func ExampleNewEngine() {
	l, g, q := exampleLake()
	eng := core.NewEngine(l, core.NewTypeJaccard(g))
	results, _ := eng.Search(q, 10)
	for _, r := range results {
		fmt.Printf("%s %.2f\n", l.Table(r.Table).Name, r.Score)
	}
	// Output:
	// roster 1.00
	// transfers 0.93
	// volleyball 0.59
	// cities 0.44
}

// ExampleNewSigmaCache memoizes σ outside the engine and introspects the
// cache. Engine.Search wires one of these per query automatically (the
// hit/miss tallies surface in Stats.SigmaHits/SigmaMisses and the
// thetis_sigma_cache_* metrics); constructing one directly shows what the
// scoring workers share. Type σ is cached by interned type set, not by
// corpus entity: the 8 entities here have 5 distinct type sets, so the
// first pass already hits wherever an entity shares its set with one scored
// before it, and 2 slots × 5 type sets = 10 entries remain.
func ExampleNewSigmaCache() {
	_, g, q := exampleLake()
	cache := core.NewSigmaCache(q, core.NewTypeJaccard(g), g.NumEntities())

	// Score every corpus entity against each distinct query entity, twice:
	// the second pass is served entirely from the cache.
	for pass := 0; pass < 2; pass++ {
		for slot := 0; slot < cache.NumSlots(); slot++ {
			for e := 0; e < g.NumEntities(); e++ {
				cache.Sigma(slot, kg.EntityID(e))
			}
		}
	}

	st := cache.Stats()
	fmt.Printf("slots=%d dense=%v entries=%d\n", st.Slots, st.Dense, st.Entries)
	fmt.Printf("hits=%d misses=%d hit rate %.0f%%\n", st.Hits, st.Misses, 100*st.HitRate())
	// Output:
	// slots=2 dense=true entries=10
	// hits=22 misses=10 hit rate 69%
}

// ExampleBuildTypeLSEI prefilters the search space with a MinHash LSEI
// before scoring: only tables that collide with the query's entities (and
// survive voting) are scored at all.
func ExampleBuildTypeLSEI() {
	l, g, q := exampleLake()
	tj := core.NewTypeJaccard(g)
	x := core.BuildTypeLSEI(l, tj, core.DefaultLSEIConfig())

	candidates := x.Candidates(q, 1)
	fmt.Printf("candidates: %d of %d tables (reduction %.0f%%)\n",
		len(candidates), l.NumTables(), 100*x.Reduction(candidates))

	eng := core.NewEngine(l, tj)
	results, _ := eng.SearchCandidates(q, candidates, 10)
	for _, r := range results {
		fmt.Println(l.Table(r.Table).Name)
	}
	// Output:
	// candidates: 2 of 4 tables (reduction 50%)
	// roster
	// transfers
}
