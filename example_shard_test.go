package thetis_test

// Runnable godoc examples: building and searching a System, and driving a
// Coordinator over custom Shard implementations (docs/SHARDING.md).
// `go test` verifies the outputs.

import (
	"context"
	"fmt"
	"strings"

	"thetis"
)

// ExampleNew ingests the README's baseball corpus into a System and ranks
// it for one entity.
func ExampleNew() {
	g := thetis.NewGraph()
	triples := `
<onto/BaseballPlayer> <rdfs:subClassOf> <onto/Athlete> .
<onto/VolleyballPlayer> <rdfs:subClassOf> <onto/Athlete> .
<res/Ron_Santo> <rdf:type> <onto/BaseballPlayer> .
<res/Ron_Santo> <rdfs:label> "Ron Santo" .
<res/Mitch_Stetter> <rdf:type> <onto/BaseballPlayer> .
<res/Mitch_Stetter> <rdfs:label> "Mitch Stetter" .
<res/Vera_Volley> <rdf:type> <onto/VolleyballPlayer> .
<res/Vera_Volley> <rdfs:label> "Vera Volley" .
`
	if err := thetis.LoadTriples(g, strings.NewReader(triples)); err != nil {
		panic(err)
	}
	linker := thetis.NewDictionaryLinker(g)

	ss := thetis.New(g)
	for _, name := range []string{"Ron Santo", "Mitch Stetter", "Vera Volley"} {
		t := thetis.NewTable(strings.ToLower(name), []string{"Player"})
		t.AppendValues(name)
		thetis.LinkTable(t, linker)
		ss.AddTable(t)
	}
	ss.UseTypeSimilarity()

	q, err := ss.ParseQuery("Ron Santo")
	if err != nil {
		panic(err)
	}
	for _, r := range ss.Search(q, 3) {
		fmt.Printf("%s %.2f\n", ss.Table(r.Table).Name, r.Score)
	}
	// Output:
	// ron santo 1.00
	// mitch stetter 0.95
	// vera volley 0.60
}

// tinyShard is a Shard serving a fixed, pre-ranked slice of the global ID
// space — the shape a shard-over-HTTP client takes. A dead context makes
// it contribute a truncated (here: empty) prefix instead.
type tinyShard []thetis.Result

func (s tinyShard) SearchShard(ctx context.Context, q thetis.Query, k int, opts thetis.ShardSearchOptions) ([]thetis.Result, thetis.SearchStats) {
	if ctx.Err() != nil {
		return nil, thetis.SearchStats{Truncated: true}
	}
	res := []thetis.Result(s)
	if k >= 0 && k < len(res) {
		res = res[:k]
	}
	return res, thetis.SearchStats{Candidates: len(res), Scored: len(res)}
}

// ExampleNewCoordinator merges two shards' rankings into one global top-k.
// Cross-shard score ties break toward the smaller table ID, so the merged
// order never depends on shard or arrival order; a failed leg degrades the
// result to a correctly ranked prefix marked Truncated.
func ExampleNewCoordinator() {
	east := tinyShard{{Table: 0, Score: 0.9}, {Table: 2, Score: 0.5}}
	west := tinyShard{{Table: 3, Score: 0.7}, {Table: 1, Score: 0.5}}
	coord := thetis.NewCoordinator(east, west)

	results, stats := coord.Search(context.Background(), nil, 10)
	for _, r := range results {
		fmt.Printf("table %d: %.1f\n", r.Table, r.Score)
	}
	fmt.Println("truncated:", stats.Truncated)

	// A cancelled context truncates every leg: the merge still returns a
	// correctly ranked (empty) prefix and marks the stats.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, stats = coord.Search(ctx, nil, 10)
	fmt.Printf("after cancel: %d results, truncated: %v\n", len(results), stats.Truncated)
	// Output:
	// table 0: 0.9
	// table 3: 0.7
	// table 1: 0.5
	// table 2: 0.5
	// truncated: false
	// after cancel: 0 results, truncated: true
}
