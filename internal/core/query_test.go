package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"thetis/internal/kg"
)

func TestParseQueryByURIAndLabel(t *testing.T) {
	g := fixtureGraph()
	q, err := ParseQuery(g, "santo | Chicago Cubs\nstetter|Milwaukee Brewers\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 2 {
		t.Fatalf("parsed %d tuples, want 2", len(q))
	}
	want := Query{
		Tuple{ent(t, g, "santo"), ent(t, g, "cubs")},
		Tuple{ent(t, g, "stetter"), ent(t, g, "brewers")},
	}
	if !reflect.DeepEqual(q, want) {
		t.Errorf("parsed = %v, want %v", q, want)
	}
}

func TestParseQuerySkipsUnknownMentions(t *testing.T) {
	g := fixtureGraph()
	q, err := ParseQuery(g, "santo | Martian Dome Ball Club")
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 || len(q[0]) != 1 {
		t.Fatalf("parsed = %v, want one 1-entity tuple", q)
	}
}

func TestParseQueryAllUnknown(t *testing.T) {
	g := fixtureGraph()
	if _, err := ParseQuery(g, "nobody | nothing"); err == nil {
		t.Error("fully unresolvable query did not error")
	}
	if _, err := ParseQuery(g, "   \n \n"); err == nil {
		t.Error("empty query did not error")
	}
}

func TestQueryHelpers(t *testing.T) {
	g := fixtureGraph()
	santo, cubs := ent(t, g, "santo"), ent(t, g, "cubs")
	q := Query{Tuple{santo, cubs}, Tuple{santo}}
	if q.NumEntities() != 3 {
		t.Errorf("NumEntities = %d, want 3", q.NumEntities())
	}
	distinct := q.DistinctEntities()
	if len(distinct) != 2 || distinct[0] != santo || distinct[1] != cubs {
		t.Errorf("DistinctEntities = %v", distinct)
	}
}

func TestComplement(t *testing.T) {
	a := []int{1, 2, 3, 4}
	b := []int{10, 2, 30, 40}
	got := Complement(a, b, 4)
	// Top halves: a[:2]={1,2}, b[:2]={10,2}; interleaved dedup: 1,10,2.
	// Fill from tails: a[2]=3.
	want := []int{1, 10, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Complement = %v, want %v", got, want)
	}
}

func TestComplementShortLists(t *testing.T) {
	got := Complement([]int{1}, []int{2}, 10)
	if !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("Complement = %v", got)
	}
	if got := Complement(nil, []int{5, 6}, 2); !reflect.DeepEqual(got, []int{5, 6}) {
		t.Errorf("Complement(nil, b) = %v", got)
	}
	if got := Complement(nil, nil, 3); len(got) != 0 {
		t.Errorf("Complement(nil,nil) = %v", got)
	}
}

func TestComplementUnboundedK(t *testing.T) {
	got := Complement([]int{1, 2}, []int{3}, -1)
	if len(got) != 3 {
		t.Errorf("unbounded Complement = %v", got)
	}
}

func TestComplementNeverExceedsK(t *testing.T) {
	a := []int{1, 2, 3, 4, 5}
	b := []int{6, 7, 8, 9, 10}
	for k := 0; k <= 10; k++ {
		if got := Complement(a, b, k); len(got) > k {
			t.Errorf("k=%d: len=%d", k, len(got))
		}
	}
}

func TestAggregationString(t *testing.T) {
	if AggregateMax.String() != "max" || AggregateAvg.String() != "avg" {
		t.Error("Aggregation.String wrong")
	}
}

// naiveParseQuery is ParseQuery as it stood before kg.Graph owned the label
// index: a folded-label → first-entity map rebuilt over the whole graph on
// every call. It is the oracle the indexed ParseQuery must equal.
func naiveParseQuery(g *kg.Graph, text string) (Query, error) {
	labelIndex := map[string]kg.EntityID{}
	for e := kg.EntityID(0); int(e) < g.NumEntities(); e++ {
		label := strings.ToLower(strings.TrimSpace(g.Label(e)))
		if _, dup := labelIndex[label]; !dup {
			labelIndex[label] = e
		}
	}
	var q Query
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var tuple Tuple
		for _, mention := range strings.Split(line, "|") {
			mention = strings.TrimSpace(mention)
			if mention == "" {
				continue
			}
			if e, ok := g.Lookup(mention); ok {
				tuple = append(tuple, e)
				continue
			}
			if e, ok := labelIndex[strings.ToLower(mention)]; ok {
				tuple = append(tuple, e)
			}
		}
		if len(tuple) > 0 {
			q = append(q, tuple)
		}
	}
	if len(q) == 0 {
		return nil, fmt.Errorf("core: no query tuple could be resolved against the KG")
	}
	return q, nil
}

// checkParseQueryMatchesNaive fails unless ParseQuery and the oracle agree
// on text: same tuples, same error.
func checkParseQueryMatchesNaive(t *testing.T, g *kg.Graph, text string) {
	t.Helper()
	got, gotErr := ParseQuery(g, text)
	want, wantErr := naiveParseQuery(g, text)
	if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("ParseQuery(%q) = %v, %v; rebuild oracle gives %v, %v", text, got, gotErr, want, wantErr)
	}
}

// TestParseQueryMatchesRebuildOracle grows graphs by random AddEntity
// sequences drawn from a few names that differ only in case and surrounding
// whitespace and serve as URIs and labels alike, so every maintenance case
// of the graph's label index occurs: duplicate folded labels, URI-fallback
// keys, a label arriving after the URI while a higher ID already owns it
// (the lower ID must win), an old URI-fallback key that must stop resolving
// or pass to another carrier. After every step random texts must resolve
// exactly as the per-call rebuild resolved them.
func TestParseQueryMatchesRebuildOracle(t *testing.T) {
	names := []string{"ab", "res/ab", "cd", "Ron Santo", "é"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		variant := func() string {
			s := names[rng.Intn(len(names))]
			if rng.Intn(2) == 0 {
				s = strings.ToUpper(s)
			}
			return strings.Repeat(" ", rng.Intn(2)) + s + strings.Repeat("\t", rng.Intn(2))
		}
		g := kg.NewGraph()
		var uris []string
		for step := 0; step < 60; step++ {
			uri, label := variant(), ""
			if len(uris) > 0 && rng.Intn(3) == 0 {
				uri = uris[rng.Intn(len(uris))] // re-add: may deliver the label late
			}
			if rng.Intn(2) == 0 {
				label = variant()
			}
			g.AddEntity(uri, label)
			uris = append(uris, uri)
			for i := 0; i < 8; i++ {
				var lines []string
				for l := rng.Intn(3) + 1; l > 0; l-- {
					mentions := []string{variant(), variant(), "nobody"}
					lines = append(lines, strings.Join(mentions[:rng.Intn(3)+1], "|"))
				}
				checkParseQueryMatchesNaive(t, g, strings.Join(lines, "\n"))
			}
		}
	}
}

// FuzzParseQuery: entities is one "uri<TAB>label" per line, added in order
// (so the fuzzer also drives the label index through late labels and
// colliding keys); text is then parsed. ParseQuery must never panic and
// must equal the rebuild oracle. Seeds live in testdata/fuzz/FuzzParseQuery.
func FuzzParseQuery(f *testing.F) {
	f.Add("santo\tRon Santo\ncubs\tChicago Cubs", "santo | chicago cubs\nRON SANTO")
	f.Add("a\nA\na\tb\nA\tB", " a |A| b \n\n|")
	f.Fuzz(func(t *testing.T, entities, text string) {
		g := kg.NewGraph()
		for _, line := range strings.Split(entities, "\n") {
			uri, label, _ := strings.Cut(line, "\t")
			g.AddEntity(uri, label)
		}
		checkParseQueryMatchesNaive(t, g, text)
	})
}

// labelledGraph returns n entities res/e<i> labelled "Entity <i>".
func labelledGraph(n int) *kg.Graph {
	g := kg.NewGraph()
	for i := 0; i < n; i++ {
		g.AddEntity(fmt.Sprintf("res/e%d", i), fmt.Sprintf("Entity %d", i))
	}
	return g
}

// TestParseQueryAllocsIndependentOfGraphSize is the complexity guard: one
// URI mention and one label mention cost the same allocations over 1 000
// entities as over 50 000 (the per-call rebuild cost ~1 k against ~50 k).
func TestParseQueryAllocsIndependentOfGraphSize(t *testing.T) {
	allocs := func(n int) float64 {
		g := labelledGraph(n)
		return testing.AllocsPerRun(50, func() {
			if q, err := ParseQuery(g, "res/e3 | ENTITY 7"); err != nil || len(q[0]) != 2 {
				t.Fatalf("ParseQuery = %v, %v", q, err)
			}
		})
	}
	if small, large := allocs(1000), allocs(50000); small != large {
		t.Errorf("ParseQuery allocates %.0f/op over 1 000 entities but %.0f/op over 50 000", small, large)
	}
}

func BenchmarkParseQuery(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"10k", 10_000}, {"100k", 100_000}} {
		b.Run(size.name, func(b *testing.B) {
			g := labelledGraph(size.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ParseQuery(g, "res/e3 | ENTITY 7 | res/e11"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
