package thetis

// Root-package tests for the shard-over-HTTP daemon glue. The end-to-end
// differential battery lives in internal/server/httpshard_battery_test.go;
// these cover the System-level wire-query resolution directly.

import (
	"context"
	"testing"

	"thetis/internal/remote"
)

// TestResolveWireQueryUnknownURIsAreEphemeral: a /shard/search query
// mentioning URIs this daemon has never interned must not grow the shared
// graph (a stream of novel URIs — adversarial or just diverse — would
// otherwise expand it without bound and serialize searches behind the
// write locks). Unknowns resolve to request-scoped ephemeral IDs that
// preserve tuple arity and identity: distinct URIs stay distinct, repeats
// share an ID, and none collide with real entities.
func TestResolveWireQueryUnknownURIsAreEphemeral(t *testing.T) {
	sys, _ := buildDemoSystem(t)
	before := sys.GraphCounts()

	q := sys.resolveWireQuery([][]string{
		{"res/Ron_Santo", "http://nowhere/unknown-a"},
		{"http://nowhere/unknown-b", "http://nowhere/unknown-a"},
	})
	if got := sys.GraphCounts(); got != before {
		t.Fatalf("resolving unknown URIs mutated the graph: %+v -> %+v", before, got)
	}
	if len(q) != 2 || len(q[0]) != 2 || len(q[1]) != 2 {
		t.Fatalf("tuple arity lost: %+v", q)
	}
	known, ok := sys.graph.Lookup("res/Ron_Santo")
	if !ok || q[0][0] != known {
		t.Fatalf("known URI resolved to %v, want %v", q[0][0], known)
	}
	a, b := q[0][1], q[1][0]
	if a == b {
		t.Fatal("distinct unknown URIs collapsed to one ID")
	}
	if q[1][1] != a {
		t.Fatalf("repeated unknown URI got a fresh ID: %v vs %v", q[1][1], a)
	}
	for _, e := range []EntityID{a, b} {
		if int(e) < sys.graph.NumEntities() {
			t.Fatalf("ephemeral ID %v collides with the interned range [0,%d)", e, sys.graph.NumEntities())
		}
	}

	// Resolving the same unknowns again must still not intern anything —
	// the IDs are request-scoped, not cached.
	sys.resolveWireQuery([][]string{{"http://nowhere/unknown-a"}})
	if got := sys.GraphCounts(); got != before {
		t.Fatalf("second resolution mutated the graph: %+v -> %+v", before, got)
	}
}

// TestServeShardSearchUnknownURIsStillRank: a leg whose query mixes known
// and unknown entities must search without panicking or growing the
// graph, under both similarities — every σ implementation treats an
// ephemeral out-of-range ID as an entity with no types, edges, or
// vectors (score 0 off the diagonal), exactly like a freshly interned
// stranger used to.
func TestServeShardSearchUnknownURIsStillRank(t *testing.T) {
	for _, sim := range []string{"type", "embedding"} {
		sys, _ := buildDemoSystem(t)
		switch sim {
		case "type":
			sys.UseTypeSimilarity()
		case "embedding":
			useDemoEmbeddings(sys)
		}
		before := sys.GraphCounts()
		p := sys.ServeShardSearch(context.Background(), remote.SearchRequest{
			Tuples: [][]string{{"res/Ron_Santo", "http://nowhere/never-seen"}},
			K:      10,
		})
		if got := sys.GraphCounts(); got != before {
			t.Fatalf("%s: ServeShardSearch grew the graph: %+v -> %+v", sim, before, got)
		}
		if len(p.Results) == 0 {
			t.Fatalf("%s: no results despite a known query entity", sim)
		}
		if p.Results[0].Table != 0 {
			t.Fatalf("%s: roster table not ranked first: %+v", sim, p.Results)
		}
	}
}

// TestResolveWireQueryAllUnknownEmptyRanking: a query of only strangers
// matches nothing but must degrade cleanly (σ = 0 everywhere scores no
// table above zero).
func TestResolveWireQueryAllUnknownEmptyRanking(t *testing.T) {
	sys, _ := buildDemoSystem(t)
	sys.UseTypeSimilarity()
	p := sys.ServeShardSearch(context.Background(), remote.SearchRequest{
		Tuples: [][]string{{"http://nowhere/x", "http://nowhere/y"}},
		K:      10,
	})
	for _, r := range p.Results {
		if r.Score != 0 {
			t.Fatalf("all-unknown query scored a table: %+v", p.Results)
		}
	}
}
