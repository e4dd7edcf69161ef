package core

import (
	"testing"

	"thetis/internal/embedding"
	"thetis/internal/kg"
	"thetis/internal/lake"
)

func typeLSEI(t testing.TB, cfg LSEIConfig) (*LSEI, *lake.Lake, *kg.Graph) {
	t.Helper()
	l, g := fixtureLake(t)
	tj := NewTypeJaccard(g)
	return BuildTypeLSEI(l, tj, cfg), l, g
}

func TestTypeLSEIFindsOwnTables(t *testing.T) {
	x, _, g := typeLSEI(t, LSEIConfig{Vectors: 32, BandSize: 8, Seed: 1})
	q := queryOf(t, g, "santo", "cubs")
	cands := x.Candidates(q, 1)
	found := map[lake.TableID]bool{}
	for _, c := range cands {
		found[c] = true
	}
	// The exact-match table must survive prefiltering: the query entities
	// themselves are in the index and link to table 0.
	if !found[0] {
		t.Errorf("prefilter dropped the exact-match table; candidates %v", cands)
	}
	// The unlinked table can never be a candidate.
	if found[4] {
		t.Error("unlinked table became a candidate")
	}
}

func TestLSEIReduction(t *testing.T) {
	x, l, g := typeLSEI(t, LSEIConfig{Vectors: 30, BandSize: 10, Seed: 1})
	q := queryOf(t, g, "santo")
	cands := x.Candidates(q, 1)
	red := x.Reduction(cands)
	want := 1 - float64(len(cands))/float64(l.NumTables())
	if red != want {
		t.Errorf("Reduction = %v, want %v", red, want)
	}
	if red < 0 || red > 1 {
		t.Errorf("Reduction out of range: %v", red)
	}
}

func TestLSEIVotingMonotone(t *testing.T) {
	x, _, g := typeLSEI(t, LSEIConfig{Vectors: 32, BandSize: 8, Seed: 1})
	q := queryOf(t, g, "santo", "cubs")
	v1 := x.Candidates(q, 1)
	v3 := x.Candidates(q, 3)
	if len(v3) > len(v1) {
		t.Errorf("3 votes returned more candidates (%d) than 1 vote (%d)", len(v3), len(v1))
	}
	// votes < 1 behaves like 1.
	v0 := x.Candidates(q, 0)
	if len(v0) != len(v1) {
		t.Errorf("votes=0 (%d) != votes=1 (%d)", len(v0), len(v1))
	}
}

func TestLSEISearchMatchesBruteForceTop1(t *testing.T) {
	x, l, g := typeLSEI(t, LSEIConfig{Vectors: 32, BandSize: 8, Seed: 1})
	eng := NewEngine(l, NewTypeJaccard(g))
	q := queryOf(t, g, "santo", "cubs")
	brute, _ := eng.Search(q, 1)
	pre, _ := eng.SearchCandidates(q, x.Candidates(q, 1), 1)
	if len(brute) == 0 || len(pre) == 0 {
		t.Fatal("empty results")
	}
	if brute[0].Table != pre[0].Table {
		t.Errorf("prefiltered top-1 %v != brute-force top-1 %v", pre[0], brute[0])
	}
}

func TestFrequentTypeFilter(t *testing.T) {
	l, g := fixtureLake(t)
	tj := NewTypeJaccard(g)
	// Thing/Agent appear in nearly every table; with an aggressive
	// threshold everything common is dropped and signatures become more
	// selective, but the index must still be buildable and queryable.
	x := BuildTypeLSEI(l, tj, LSEIConfig{Vectors: 32, BandSize: 8, Seed: 1, FrequentTypeThreshold: 0.3})
	q := queryOf(t, g, "santo")
	cands := x.Candidates(q, 1)
	for _, c := range cands {
		if c == 4 {
			t.Error("unlinked table candidate")
		}
	}
}

func embeddingFixture(t testing.TB) (*lake.Lake, *kg.Graph, *EmbeddingCosine) {
	t.Helper()
	l, g := fixtureLake(t)
	store := embedding.NewStore(g.NumEntities(), 4)
	// Hand-crafted embeddings: baseball in one quadrant, volleyball in
	// another, cities in a third.
	set := func(uri string, v embedding.Vector) {
		e, ok := g.Lookup(uri)
		if !ok {
			t.Fatalf("missing %q", uri)
		}
		store.Set(e, v)
	}
	set("santo", embedding.Vector{1, 0.1, 0, 0})
	set("stetter", embedding.Vector{1, 0.2, 0, 0})
	set("cubs", embedding.Vector{0.9, 0.3, 0, 0})
	set("brewers", embedding.Vector{0.95, 0.25, 0, 0})
	set("volley1", embedding.Vector{0, 0, 1, 0.1})
	set("volleyteam", embedding.Vector{0, 0, 1, 0.2})
	set("chicago", embedding.Vector{0, 1, 0, -1})
	set("milwaukee", embedding.Vector{0, 1, 0, -0.9})
	return l, g, NewEmbeddingCosine(g, store)
}

func TestEmbeddingLSEI(t *testing.T) {
	l, g, ec := embeddingFixture(t)
	x := BuildEmbeddingLSEI(l, ec, 4, LSEIConfig{Vectors: 32, BandSize: 8, Seed: 1})
	q := queryOf(t, g, "santo", "cubs")
	cands := x.Candidates(q, 1)
	found := map[lake.TableID]bool{}
	for _, c := range cands {
		found[c] = true
	}
	if !found[0] {
		t.Errorf("embedding prefilter dropped table 0; candidates %v", cands)
	}
	if found[4] {
		t.Error("unlinked table candidate")
	}
}

func TestEmbeddingLSEIMissingVectors(t *testing.T) {
	l, g := fixtureLake(t)
	// Empty store: nothing indexable; candidates must be empty, not panic.
	ec := NewEmbeddingCosine(g, embedding.NewStore(g.NumEntities(), 4))
	x := BuildEmbeddingLSEI(l, ec, 4, LSEIConfig{Vectors: 32, BandSize: 8, Seed: 1})
	q := queryOf(t, g, "santo")
	if cands := x.Candidates(q, 1); len(cands) != 0 {
		t.Errorf("candidates with no embeddings = %v", cands)
	}
}

func TestLSEINumBuckets(t *testing.T) {
	x, _, _ := typeLSEI(t, LSEIConfig{Vectors: 32, BandSize: 8, Seed: 1})
	if x.NumBuckets() == 0 {
		t.Error("no buckets after build")
	}
}

func TestDefaultLSEIConfig(t *testing.T) {
	cfg := DefaultLSEIConfig()
	if cfg.Vectors != 30 || cfg.BandSize != 10 {
		t.Errorf("default config = %+v, want the paper's (30,10)", cfg)
	}
}

func TestCandidatesAggregatedTypes(t *testing.T) {
	x, _, g := typeLSEI(t, LSEIConfig{Vectors: 32, BandSize: 8, Seed: 1})
	q := Query{
		Tuple{ent(t, g, "santo"), ent(t, g, "cubs")},
		Tuple{ent(t, g, "stetter"), ent(t, g, "brewers")},
	}
	cands := x.CandidatesAggregated(q, 1)
	found := map[lake.TableID]bool{}
	for _, c := range cands {
		found[c] = true
	}
	if !found[0] {
		t.Errorf("query-aggregated prefilter dropped table 0: %v", cands)
	}
	if found[4] {
		t.Error("unlinked table candidate")
	}
}

func TestCandidatesAggregatedEmbeddings(t *testing.T) {
	l, g, ec := embeddingFixture(t)
	x := BuildEmbeddingLSEI(l, ec, 4, LSEIConfig{Vectors: 32, BandSize: 8, Seed: 1})
	q := Query{
		Tuple{ent(t, g, "santo"), ent(t, g, "cubs")},
		Tuple{ent(t, g, "stetter"), ent(t, g, "brewers")},
	}
	cands := x.CandidatesAggregated(q, 1)
	found := false
	for _, c := range cands {
		if c == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("embedding query aggregation dropped table 0: %v", cands)
	}
}

func TestCandidatesAggregatedNoSignal(t *testing.T) {
	l, g := fixtureLake(t)
	ec := NewEmbeddingCosine(g, embedding.NewStore(g.NumEntities(), 4))
	x := BuildEmbeddingLSEI(l, ec, 4, LSEIConfig{Vectors: 32, BandSize: 8, Seed: 1})
	q := queryOf(t, g, "santo")
	if cands := x.CandidatesAggregated(q, 1); len(cands) != 0 {
		t.Errorf("aggregated candidates with no embeddings = %v", cands)
	}
}
