package core

import (
	"fmt"
	"math"
	"testing"

	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/table"
)

// sparseKeys is a keyed σ that claims a key space too large for the dense
// σ cache, so a search over it reads its key rows from the sharded maps.
// Everything else is the TypeJaccard it wraps.
type sparseKeys struct{ *TypeJaccard }

func (sparseKeys) numKeys() int { return maxSigmaDenseBytes }

// identityLake is a hand-made lake for the identity correction of the
// grouped σ pass. Players p0…p3 share one type set, so σ between two of
// them is 0.95 and only a player against itself scores 1; teams share
// another set. The "late" entity is interned after the σ, untyped, so its
// key is 0 (the empty set). Table "holder" puts the query player p0 in a
// column beside p1 and p2, "peers" holds the other players only,
// "repeats" holds p0 twice among a peer and an unlinked cell, "late"
// holds the late entity once beside p3, and "teams" holds no player.
func identityLake(t *testing.T) (*lake.Lake, *TypeJaccard, map[string]kg.EntityID) {
	t.Helper()
	g := kg.NewGraph()
	thing := g.AddType("Thing", "")
	player := g.AddType("Player", "")
	team := g.AddType("Team", "")
	g.AddSubtype(player, thing)
	g.AddSubtype(team, thing)
	ents := map[string]kg.EntityID{}
	for i := range 4 {
		name := fmt.Sprintf("p%d", i)
		ents[name] = g.AddEntity("res/"+name, name)
		g.AssignType(ents[name], player)
	}
	for i := range 2 {
		name := fmt.Sprintf("t%d", i)
		ents[name] = g.AddEntity("res/"+name, name)
		g.AssignType(ents[name], team)
	}
	tj := NewTypeJaccard(g)
	ents["late"] = g.AddEntity("res/late", "late")

	l := lake.New(g)
	link := func(name string) table.Cell {
		if name == "" {
			return table.Cell{Value: "-"}
		}
		return table.LinkedCell(name, ents[name])
	}
	add := func(name string, rows ...[2]string) {
		tb := table.New(name, []string{"a", "b"})
		for _, r := range rows {
			tb.AppendRow([]table.Cell{link(r[0]), link(r[1])})
		}
		l.Add(tb)
	}
	add("holder", [2]string{"p1", "t0"}, [2]string{"p0", "t1"}, [2]string{"p2", "t0"})
	add("peers", [2]string{"p1", "t0"}, [2]string{"p2", "t1"}, [2]string{"p3", "t1"})
	add("repeats", [2]string{"p0", "t1"}, [2]string{"", "t0"}, [2]string{"p0", ""}, [2]string{"p3", "t0"})
	add("late", [2]string{"late", "t1"}, [2]string{"p3", "t0"})
	add("teams", [2]string{"t0", "t1"})
	return l, tj, ents
}

// TestGroupedPassIdentity checks the grouped type-σ pass where a query
// entity sits in a column beside entities of its own type set, and where
// an entity interned after the σ (key 0) is queried: through Search at
// k > 0 and k < 0 and through ScoreTable, under MAX and AVG, over the
// dense cache and the sharded one, against the oracle under its comparison
// rule. ScoreTable runs Search's pass, so its score is Search's bit for
// bit. The pinned scores show what the identity correction adds: without
// it "holder" would read 0.95 for p0 under MAX, not 1.
func TestGroupedPassIdentity(t *testing.T) {
	l, tj, ents := identityLake(t)
	if tj.key(ents["late"]) != 0 || tj.key(ents["p0"]) != tj.key(ents["p1"]) {
		t.Fatal("fixture: the late entity must have key 0 and the players one key")
	}
	queries := map[string]Query{
		"player":      {{ents["p0"]}},
		"player-team": {{ents["p0"], ents["t1"]}, {ents["p3"], ents["t0"]}},
		"late":        {{ents["late"], ents["t1"]}},
	}
	sims := map[string]Similarity{"dense": tj, "sharded": sparseKeys{tj}}
	for simName, sim := range sims {
		for _, agg := range []Aggregation{AggregateMax, AggregateAvg} {
			for qName, q := range queries {
				t.Run(fmt.Sprintf("%s/%v/%s", simName, agg, qName), func(t *testing.T) {
					eng := &Engine{Lake: l, Sim: sim, Inf: UniformInformativeness, Agg: agg, Parallelism: 1}
					if dense := NewSigmaCache(q, sim, l.Graph.NumEntities()).Dense(); dense != (simName == "dense") {
						t.Fatalf("cache dense = %v", dense)
					}
					all, _ := eng.Search(q, -1)
					if err := matchesOracle(eng, q, nil, all, -1); err != nil {
						t.Fatal(err)
					}
					top, _ := eng.Search(q, 2)
					if err := matchesOracle(eng, q, nil, top, 2); err != nil {
						t.Fatalf("k = 2: %v", err)
					}
					for _, r := range all {
						if got, _ := eng.ScoreTable(q, r.Table); math.Float64bits(got) != math.Float64bits(r.Score) {
							t.Fatalf("table %d: ScoreTable %v, Search %v", r.Table, got, r.Score)
						}
					}
				})
			}
		}
	}

	// The identity correction, pinned: p0's column in "holder" holds p0
	// once among three cells.
	q := queries["player"]
	for agg, want := range map[Aggregation]float64{
		AggregateMax: 1,
		AggregateAvg: 1 / (math.Sqrt(math.Pow(1-(1+2*MaxJaccard)/3, 2)) + 1),
	} {
		eng := &Engine{Lake: l, Sim: tj, Inf: UniformInformativeness, Agg: agg}
		if got, _ := eng.ScoreTable(q, 0); math.Abs(got-want) > 1e-12 {
			t.Errorf("%v: holder scores %v, want %v", agg, got, want)
		}
		// "peers" reads only p0's key: 0.95, never 1.
		if got, _ := eng.ScoreTable(q, 1); got >= want {
			t.Errorf("%v: peers score %v, not below holder's %v", agg, got, want)
		}
	}
	// The late entity's own cell is its only match.
	eng := &Engine{Lake: l, Sim: tj, Inf: UniformInformativeness, Agg: AggregateMax}
	if got, _ := eng.ScoreTable(Query{{ents["late"]}}, 3); got != 1 {
		t.Errorf("late entity scores %v in its own table, want 1", got)
	}
}

// TestKeyGroupsFollowTheSigma checks the lake's key-group memo from a
// search's side: a search builds each candidate's groups once under its σ
// and reads them afterwards; another TypeJaccard over the same graph
// rebuilds them under its own tag; a removed table has none.
func TestKeyGroupsFollowTheSigma(t *testing.T) {
	l, tj, ents := identityLake(t)
	q := Query{{ents["p0"], ents["t1"]}}
	eng := NewEngine(l, tj)
	want, _ := eng.Search(q, -1)
	built := func(tid lake.TableID, sim *TypeJaccard) (rebuilt bool) {
		l.KeyGroups(tid, keyedSimilarity(sim), func(e kg.EntityID) uint32 {
			rebuilt = true
			return sim.key(e)
		})
		return rebuilt
	}
	for _, tid := range l.LiveTableIDs() {
		if built(tid, tj) {
			t.Fatalf("table %d: a search left no key groups for its σ", tid)
		}
	}
	other := NewTypeJaccard(l.Graph)
	got, _ := NewEngine(l, other).Search(q, -1)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("another σ ranks %v, want %v", got, want)
	}
	if !built(0, tj) {
		t.Fatal("groups built under another σ were served for the first")
	}
	l.Remove(0)
	if g := l.KeyGroups(0, keyedSimilarity(tj), tj.key); g != nil {
		t.Fatalf("a removed table keeps key groups %+v", g)
	}
	if got, _ := eng.Search(q, -1); len(got) != len(want)-1 {
		t.Fatalf("after removing table 0: %v, want %v without it", got, want)
	}
}
