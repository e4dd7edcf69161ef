package kg

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func buildSampleGraph() *Graph {
	g := NewGraph()
	thing := g.AddType("owl:Thing", "Thing")
	agent := g.AddType("dbo:Agent", "Agent")
	person := g.AddType("dbo:Person", "Person")
	athlete := g.AddType("dbo:Athlete", "Athlete")
	player := g.AddType("dbo:BaseballPlayer", "Baseball Player")
	org := g.AddType("dbo:Organisation", "Organisation")
	team := g.AddType("dbo:BaseballTeam", "Baseball Team")
	g.AddSubtype(agent, thing)
	g.AddSubtype(person, agent)
	g.AddSubtype(athlete, person)
	g.AddSubtype(player, athlete)
	g.AddSubtype(org, agent)
	g.AddSubtype(team, org)

	santo := g.AddEntity("dbr:Ron_Santo", "Ron Santo")
	cubs := g.AddEntity("dbr:Chicago_Cubs", "Chicago Cubs")
	stetter := g.AddEntity("dbr:Mitch_Stetter", "Mitch Stetter")
	brewers := g.AddEntity("dbr:Milwaukee_Brewers", "Milwaukee Brewers")
	g.AssignType(santo, player)
	g.AssignType(santo, thing)
	g.AssignType(stetter, player)
	g.AssignType(stetter, thing)
	g.AssignType(cubs, team)
	g.AssignType(cubs, thing)
	g.AssignType(brewers, team)
	g.AssignType(brewers, thing)

	playsFor := g.AddPredicate("dbo:team")
	g.AddEdge(santo, playsFor, cubs)
	g.AddEdge(stetter, playsFor, brewers)
	return g
}

func TestAddEntityInternsIDs(t *testing.T) {
	g := NewGraph()
	a := g.AddEntity("dbr:A", "A")
	b := g.AddEntity("dbr:B", "B")
	if a == b {
		t.Fatalf("distinct URIs got the same ID %d", a)
	}
	if again := g.AddEntity("dbr:A", ""); again != a {
		t.Errorf("re-adding dbr:A: got ID %d, want %d", again, a)
	}
	if g.NumEntities() != 2 {
		t.Errorf("NumEntities = %d, want 2", g.NumEntities())
	}
}

func TestAddEntityLabelBackfill(t *testing.T) {
	g := NewGraph()
	e := g.AddEntity("dbr:X", "")
	if got := g.Label(e); got != "dbr:X" {
		t.Errorf("Label of unlabeled entity = %q, want URI fallback", got)
	}
	g.AddEntity("dbr:X", "Xavier")
	if got := g.Label(e); got != "Xavier" {
		t.Errorf("Label after backfill = %q, want Xavier", got)
	}
	g.AddEntity("dbr:X", "Other")
	if got := g.Label(e); got != "Xavier" {
		t.Errorf("first non-empty label should win, got %q", got)
	}
}

func TestAssignTypeSortedDeduplicated(t *testing.T) {
	g := NewGraph()
	e := g.AddEntity("dbr:E", "E")
	t3 := g.AddType("t3", "")
	t1 := g.AddType("t1", "")
	t2 := g.AddType("t2", "")
	g.AssignType(e, t3)
	g.AssignType(e, t1)
	g.AssignType(e, t2)
	g.AssignType(e, t1)
	got := g.Types(e)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("type set not sorted: %v", got)
	}
	if len(got) != 3 {
		t.Errorf("type set has %d entries, want 3 (dedup failed): %v", len(got), got)
	}
}

func TestEdgesAndDegree(t *testing.T) {
	g := buildSampleGraph()
	santo, _ := g.Lookup("dbr:Ron_Santo")
	cubs, _ := g.Lookup("dbr:Chicago_Cubs")
	out := g.Out(santo)
	if len(out) != 1 || out[0].Object != cubs {
		t.Fatalf("Out(santo) = %v, want one edge to cubs (%d)", out, cubs)
	}
	in := g.In(cubs)
	if len(in) != 1 || in[0].Object != santo {
		t.Fatalf("In(cubs) = %v, want one edge from santo (%d)", in, santo)
	}
	if g.Degree(santo) != 1 || g.Degree(cubs) != 1 {
		t.Errorf("degrees = %d,%d, want 1,1", g.Degree(santo), g.Degree(cubs))
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestTypeClosure(t *testing.T) {
	g := buildSampleGraph()
	player, _ := g.LookupType("dbo:BaseballPlayer")
	closure := g.TypeClosure(player)
	wantURIs := []string{"owl:Thing", "dbo:Agent", "dbo:Person", "dbo:Athlete", "dbo:BaseballPlayer"}
	if len(closure) != len(wantURIs) {
		t.Fatalf("closure size = %d, want %d (%v)", len(closure), len(wantURIs), closure)
	}
	got := map[string]bool{}
	for _, c := range closure {
		got[g.TypeURI(c)] = true
	}
	for _, u := range wantURIs {
		if !got[u] {
			t.Errorf("closure missing %s", u)
		}
	}
}

func TestTypeClosureToleratesCycles(t *testing.T) {
	g := NewGraph()
	a := g.AddType("a", "")
	b := g.AddType("b", "")
	g.AddSubtype(a, b)
	g.AddSubtype(b, a)
	closure := g.TypeClosure(a)
	if len(closure) != 2 {
		t.Fatalf("cyclic closure = %v, want {a,b}", closure)
	}
}

func TestExpandedTypes(t *testing.T) {
	g := buildSampleGraph()
	santo, _ := g.Lookup("dbr:Ron_Santo")
	expanded := g.ExpandedTypes(santo)
	// Direct: BaseballPlayer, Thing. Closure adds Athlete, Person, Agent.
	if len(expanded) != 5 {
		names := make([]string, len(expanded))
		for i, t2 := range expanded {
			names[i] = g.TypeURI(t2)
		}
		t.Fatalf("ExpandedTypes = %v, want 5 types", names)
	}
}

func TestLookupMisses(t *testing.T) {
	g := buildSampleGraph()
	if _, ok := g.Lookup("dbr:Nobody"); ok {
		t.Error("Lookup of unknown entity reported ok")
	}
	if _, ok := g.LookupType("dbo:Nothing"); ok {
		t.Error("LookupType of unknown type reported ok")
	}
	if _, ok := g.LookupPredicate("dbo:none"); ok {
		t.Error("LookupPredicate of unknown predicate reported ok")
	}
}

func TestComputeStats(t *testing.T) {
	g := buildSampleGraph()
	s := ComputeStats(g)
	if s.Entities != 4 || s.Edges != 2 || s.Types != 7 || s.Predicates != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MeanTypesPerEntity != 2 {
		t.Errorf("MeanTypesPerEntity = %v, want 2", s.MeanTypesPerEntity)
	}
	thing, _ := g.LookupType("owl:Thing")
	if s.TypeFrequency[thing] != 4 {
		t.Errorf("owl:Thing frequency = %d, want 4", s.TypeFrequency[thing])
	}
	top := s.TopTypes(1)
	if len(top) != 1 || top[0] != thing {
		t.Errorf("TopTypes(1) = %v, want [owl:Thing]", top)
	}
}

func TestStatsEmptyGraph(t *testing.T) {
	s := ComputeStats(NewGraph())
	if s.Entities != 0 || s.MeanDegree != 0 {
		t.Errorf("empty graph stats = %+v", s)
	}
}

// Property: interning is a bijection between added URIs and IDs.
func TestEntityInterningProperty(t *testing.T) {
	f := func(uris []string) bool {
		g := NewGraph()
		ids := map[string]EntityID{}
		for _, u := range uris {
			id := g.AddEntity(u, "")
			if prev, ok := ids[u]; ok && prev != id {
				return false
			}
			ids[u] = id
		}
		for u, id := range ids {
			got, ok := g.Lookup(u)
			if !ok || got != id {
				return false
			}
		}
		return g.NumEntities() == len(ids)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: AssignType keeps the type slice sorted and duplicate-free for
// any assignment order.
func TestAssignTypeProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		g := NewGraph()
		e := g.AddEntity("e", "")
		want := map[TypeID]bool{}
		for i := 0; i < 32; i++ {
			g.AddType(string(rune('a'+i)), "")
		}
		for _, r := range raw {
			id := TypeID(r % 32)
			g.AssignType(e, id)
			want[id] = true
		}
		got := g.Types(e)
		if len(got) != len(want) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				return false
			}
		}
		for _, id := range got {
			if !want[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGraphString(t *testing.T) {
	g := buildSampleGraph()
	if got := g.String(); got == "" {
		t.Error("String() returned empty")
	}
}

func TestTypesReturnedSliceIsStable(t *testing.T) {
	g := buildSampleGraph()
	santo, _ := g.Lookup("dbr:Ron_Santo")
	before := append([]TypeID(nil), g.Types(santo)...)
	_ = g.ExpandedTypes(santo)
	if !reflect.DeepEqual(before, g.Types(santo)) {
		t.Error("Types slice mutated by read-only operations")
	}
}

// TestLookupLabel walks the label index through its rules: mentions fold
// (case, surrounding whitespace), an unlabelled entity answers to its URI,
// the lowest ID wins a shared label, and a label arriving late moves the
// entity off its URI key — which a higher carrier of that key inherits.
func TestLookupLabel(t *testing.T) {
	g := NewGraph()
	lookup := func(mention string) EntityID {
		t.Helper()
		e, ok := g.LookupLabel(mention)
		if !ok {
			return InvalidEntity
		}
		return e
	}
	bare := g.AddEntity("dbr:Bare", "")
	santo := g.AddEntity("dbr:Ron_Santo", " Ron Santo ")
	g.AddEntity("dbr:Twin", "RON SANTO")
	other := g.AddEntity("dbr:Other", "dbr:bare")
	for mention, want := range map[string]EntityID{
		"  ron santo\t": santo,         // folded; dbr:Twin has the higher ID
		"DBR:BARE":      bare,          // URI fallback; other has the higher ID
		"dbr:twin":      InvalidEntity, // a labelled entity does not answer to its URI
		"":              InvalidEntity,
	} {
		if got := lookup(mention); got != want {
			t.Errorf("LookupLabel(%q) = %d, want %d", mention, got, want)
		}
	}

	g.AddEntity("dbr:Bare", "Ron Santo") // the late label of the lowest ID
	if got := lookup("ron santo"); got != bare {
		t.Errorf("after the late label LookupLabel(ron santo) = %d, want the lowest ID %d", got, bare)
	}
	if got := lookup("dbr:bare"); got != other {
		t.Errorf("after the late label LookupLabel(dbr:bare) = %d, want the inheriting %d", got, other)
	}
}

// BenchmarkAddEntity prices what graph construction pays per entity for the
// label index: one fold and one map insert on top of the URI interning.
func BenchmarkAddEntity(b *testing.B) {
	uris, labels := make([]string, b.N), make([]string, b.N)
	for i := range uris {
		uris[i], labels[i] = fmt.Sprintf("res/e%d", i), fmt.Sprintf("Entity %d", i)
	}
	g := NewGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddEntity(uris[i], labels[i])
	}
}
