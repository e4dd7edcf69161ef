package thetis

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// buildDemoSystem assembles the README's baseball scenario end-to-end
// through the public API only.
func buildDemoSystem(t *testing.T) (*System, Query) {
	t.Helper()
	g := NewGraph()
	triples := `
<onto/Athlete> <rdfs:subClassOf> <onto/Person> .
<onto/BaseballPlayer> <rdfs:subClassOf> <onto/Athlete> .
<onto/VolleyballPlayer> <rdfs:subClassOf> <onto/Athlete> .
<onto/BaseballTeam> <rdfs:subClassOf> <onto/Organisation> .
<res/Ron_Santo> <rdf:type> <onto/BaseballPlayer> .
<res/Ron_Santo> <rdfs:label> "Ron Santo" .
<res/Mitch_Stetter> <rdf:type> <onto/BaseballPlayer> .
<res/Mitch_Stetter> <rdfs:label> "Mitch Stetter" .
<res/Vera_Volley> <rdf:type> <onto/VolleyballPlayer> .
<res/Vera_Volley> <rdfs:label> "Vera Volley" .
<res/Chicago_Cubs> <rdf:type> <onto/BaseballTeam> .
<res/Chicago_Cubs> <rdfs:label> "Chicago Cubs" .
<res/Milwaukee_Brewers> <rdf:type> <onto/BaseballTeam> .
<res/Milwaukee_Brewers> <rdfs:label> "Milwaukee Brewers" .
<res/Ron_Santo> <onto/team> <res/Chicago_Cubs> .
<res/Mitch_Stetter> <onto/team> <res/Milwaukee_Brewers> .
`
	if err := LoadTriples(g, strings.NewReader(triples)); err != nil {
		t.Fatal(err)
	}
	sys := New(g)
	linker := NewDictionaryLinker(g)

	roster := NewTable("roster", []string{"Player", "Team"})
	roster.AppendValues("Ron Santo", "Chicago Cubs")
	roster.AppendValues("Mitch Stetter", "Milwaukee Brewers")
	LinkTable(roster, linker)
	sys.AddTable(roster)

	other := NewTable("transfers", []string{"Player"})
	other.AppendValues("Mitch Stetter")
	LinkTable(other, linker)
	sys.AddTable(other)

	volley := NewTable("volleyball", []string{"Player"})
	volley.AppendValues("Vera Volley")
	LinkTable(volley, linker)
	sys.AddTable(volley)

	q, err := sys.ParseQuery("Ron Santo | Chicago Cubs")
	if err != nil {
		t.Fatal(err)
	}
	return sys, q
}

// useDemoEmbeddings trains small embeddings over the demo KG and selects
// embedding σ.
func useDemoEmbeddings(sys *System) {
	sys.TrainEmbeddings(
		WalkConfig{WalksPerEntity: 20, Length: 6, Undirected: true, Seed: 1},
		TrainConfig{Dim: 16, Window: 3, Negatives: 4, Epochs: 6, LearningRate: 0.05, Seed: 1})
	sys.UseEmbeddingSimilarity()
}

func TestSystemTypeSearch(t *testing.T) {
	sys, q := buildDemoSystem(t)
	sys.UseTypeSimilarity()
	res := sys.Search(q, 10)
	if len(res) == 0 || res[0].Table != 0 {
		t.Fatalf("Search = %v, want roster table first", res)
	}
	if res[0].Score != 1 {
		t.Errorf("exact-match score = %v, want 1", res[0].Score)
	}
}

func TestSystemEmbeddingSearch(t *testing.T) {
	sys, q := buildDemoSystem(t)
	useDemoEmbeddings(sys)
	res := sys.Search(q, 10)
	if len(res) == 0 || res[0].Table != 0 {
		t.Fatalf("embedding search = %v, want roster table first", res)
	}
}

func TestSystemIndexedSearchAgreesOnTop1(t *testing.T) {
	sys, q := buildDemoSystem(t)
	sys.UseTypeSimilarity()
	brute := sys.Search(q, 1)
	sys.BuildIndex(DefaultIndexConfig())
	indexed := sys.Search(q, 1)
	if len(indexed) == 0 || len(brute) == 0 || indexed[0].Table != brute[0].Table {
		t.Errorf("indexed top-1 %v != brute top-1 %v", indexed, brute)
	}
}

func TestSystemKeywordAndHybrid(t *testing.T) {
	sys, q := buildDemoSystem(t)
	sys.UseTypeSimilarity()
	sys.BuildKeywordIndex()
	kw := sys.KeywordSearch("Ron Santo", 5)
	if len(kw) == 0 || kw[0] != 0 {
		t.Fatalf("KeywordSearch = %v", kw)
	}
	hybrid := sys.HybridSearch(q, "Ron Santo Chicago Cubs", 3)
	if len(hybrid) == 0 || hybrid[0] != 0 {
		t.Fatalf("HybridSearch = %v", hybrid)
	}
}

func TestSystemStats(t *testing.T) {
	sys, _ := buildDemoSystem(t)
	st := sys.Stats()
	if st.Tables != 3 {
		t.Errorf("stats = %+v", st)
	}
	if sys.NumTables() != 3 {
		t.Errorf("NumTables = %d", sys.NumTables())
	}
	if sys.Table(0).Name != "roster" {
		t.Errorf("Table(0) = %q", sys.Table(0).Name)
	}
}

func TestSystemAggregationSwitch(t *testing.T) {
	sys, q := buildDemoSystem(t)
	sys.UseTypeSimilarity()
	sys.SetAggregation(AggregateAvg)
	res := sys.Search(q, 10)
	if len(res) == 0 {
		t.Fatal("no results with AVG aggregation")
	}
}

func TestSystemPanicsWithoutSimilarity(t *testing.T) {
	sys, q := buildDemoSystem(t)
	defer func() {
		if recover() == nil {
			t.Error("Search without a similarity did not panic")
		}
	}()
	sys.Search(q, 1)
}

func TestSystemPanicsWithoutEmbeddings(t *testing.T) {
	sys, _ := buildDemoSystem(t)
	defer func() {
		if recover() == nil {
			t.Error("UseEmbeddingSimilarity without embeddings did not panic")
		}
	}()
	sys.UseEmbeddingSimilarity()
}

func TestSystemParseQueryError(t *testing.T) {
	sys, _ := buildDemoSystem(t)
	if _, err := sys.ParseQuery("Totally Unknown Entity"); err == nil {
		t.Error("unresolvable query did not error")
	}
}

func TestFuzzyLinkerThroughFacade(t *testing.T) {
	sys, _ := buildDemoSystem(t)
	linker := NewFuzzyLinker(sys.Graph(), 0.5)
	tbl := NewTable("mentions", []string{"Who"})
	tbl.AppendValues("Santo Ron")
	if n := LinkTable(tbl, linker); n != 1 {
		t.Errorf("fuzzy LinkTable linked %d cells, want 1", n)
	}
}

func TestSystemEmbeddingPersistence(t *testing.T) {
	sys, q := buildDemoSystem(t)
	sys.TrainEmbeddings(
		WalkConfig{WalksPerEntity: 10, Length: 5, Undirected: true, Seed: 2},
		TrainConfig{Dim: 8, Window: 2, Negatives: 3, Epochs: 3, LearningRate: 0.05, Seed: 2})
	var buf bytes.Buffer
	if err := sys.SaveEmbeddings(&buf); err != nil {
		t.Fatal(err)
	}
	sys2, _ := buildDemoSystem(t)
	if err := sys2.LoadEmbeddings(&buf); err != nil {
		t.Fatal(err)
	}
	sys2.UseEmbeddingSimilarity()
	res := sys2.Search(q, 5)
	if len(res) == 0 {
		t.Fatal("no results with loaded embeddings")
	}
}

func TestSystemSaveEmbeddingsWithoutTraining(t *testing.T) {
	sys, _ := buildDemoSystem(t)
	var buf bytes.Buffer
	if err := sys.SaveEmbeddings(&buf); err == nil {
		t.Error("SaveEmbeddings without training did not error")
	}
}

func TestSystemLoadEmbeddingsBadData(t *testing.T) {
	sys, _ := buildDemoSystem(t)
	if err := sys.LoadEmbeddings(strings.NewReader("garbage")); err == nil {
		t.Error("LoadEmbeddings on garbage did not error")
	}
}

// TestRefreshKeepsSimilarity: Refresh re-installs the σ that was selected
// and rebuilds what was built on it — rankings and the LSEI are the same
// before and after.
func TestRefreshKeepsSimilarity(t *testing.T) {
	cases := []struct {
		name           string
		embeddings, ix bool
	}{
		{name: "type"},
		{name: "embedding", embeddings: true},
		{name: "embedding+lsei", embeddings: true, ix: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, q := buildDemoSystem(t)
			if tc.embeddings {
				useDemoEmbeddings(sys)
			} else {
				sys.UseTypeSimilarity()
			}
			if tc.ix {
				sys.BuildIndex(DefaultIndexConfig())
			}
			want := sys.Search(q, 10)
			if len(want) == 0 {
				t.Fatal("no results before Refresh")
			}

			sys.Refresh()

			if got := sys.Search(q, 10); !slices.Equal(want, got) {
				t.Errorf("rankings changed across Refresh: %v -> %v", want, got)
			}
			if sys.HasIndex() != tc.ix {
				t.Errorf("HasIndex after Refresh = %v, want %v", sys.HasIndex(), tc.ix)
			}
		})
	}
}

func TestIncrementalIngestion(t *testing.T) {
	sys, q := buildDemoSystem(t)
	sys.UseTypeSimilarity()
	sys.BuildIndex(DefaultIndexConfig())
	sys.BuildKeywordIndex()

	// A new table arrives after the indexes were built.
	g := sys.Graph()
	santo, _ := g.Lookup("res/Ron_Santo")
	cubs, _ := g.Lookup("res/Chicago_Cubs")
	late := NewTable("late_arrival", []string{"Player", "Team"})
	late.AppendRow([]Cell{LinkedCell("Ron Santo", santo), LinkedCell("Chicago Cubs", cubs)})
	id := sys.AddTable(late)

	// Semantic search (with LSH prefiltering) finds it.
	found := false
	for _, r := range sys.Search(q, 10) {
		if r.Table == id {
			found = true
			if r.Score != 1 {
				t.Errorf("late table score = %v, want 1", r.Score)
			}
		}
	}
	if !found {
		t.Error("incrementally added table not found by indexed semantic search")
	}
	// Keyword search finds it too.
	kwFound := false
	for _, kid := range sys.KeywordSearch("late_arrival", 10) {
		if kid == id {
			kwFound = true
		}
	}
	if !kwFound {
		t.Error("incrementally added table not found by keyword search")
	}
}

func TestIncrementalIngestionNewEntityNeedsRefresh(t *testing.T) {
	sys, _ := buildDemoSystem(t)
	sys.UseTypeSimilarity()
	sys.BuildIndex(DefaultIndexConfig())

	// A brand-new KG entity appears in a late table.
	g := sys.Graph()
	player, _ := g.LookupType("onto/BaseballPlayer")
	rookie := g.AddEntity("res/Rookie", "Rex Rookie")
	g.AssignType(rookie, player)
	late := NewTable("rookies", []string{"Player"})
	late.AppendRow([]Cell{LinkedCell("Rex Rookie", rookie)})
	id := sys.AddTable(late)

	// Before Refresh the rookie has no type profile: exact-match search
	// still works (σ(e,e)=1), related search may not. After Refresh the
	// rookie behaves like any baseball player.
	sys.Refresh()
	q := Query{Tuple{rookie}}
	res := sys.Search(q, 10)
	if len(res) == 0 || res[0].Table != id {
		t.Fatalf("post-refresh search = %v, want rookies table first", res)
	}
	// Related tables (other baseball players) are found too.
	foundRoster := false
	for _, r := range res {
		if sys.Table(r.Table).Name == "roster" {
			foundRoster = true
		}
	}
	if !foundRoster {
		t.Error("refresh did not give the new entity a type profile")
	}
}
