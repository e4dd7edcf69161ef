package thetis

import (
	"context"
	"slices"
	"testing"

	"thetis/internal/obs"
)

// TestLocalSearchIsOnePipeline: a local System's search is the one
// prefilter→score→rank pipeline over its lake — no scatter leg, no merge,
// no shard labels — and an empty prefilter keeps its stages and falls back
// to a full scan, counted on thetis_shard_rescatters_total.
func TestLocalSearchIsOnePipeline(t *testing.T) {
	sys, q := buildDemoSystem(t)
	sys.UseTypeSimilarity()
	legs := obs.ShardSearchesTotal("0")
	legsBefore := legs.Value()

	search := func(label string, q Query, want ...string) SearchStats {
		t.Helper()
		res, stats := sys.SearchStats(q, 3)
		if len(res) == 0 {
			t.Fatalf("%s: no results", label)
		}
		var names []string
		for _, st := range stats.Trace.Stages {
			if st.Shard != "" {
				t.Fatalf("%s: stage %q carries shard label %q", label, st.Name, st.Shard)
			}
			names = append(names, st.Name)
		}
		if !slices.Equal(names, want) {
			t.Fatalf("%s: stages %v, want %v", label, names, want)
		}
		return stats
	}

	search("brute force", q, "mapping", "score", "rank")
	sys.BuildIndex(DefaultIndexConfig())
	if st := search("indexed", q, "probe", "vote", "mapping", "score", "rank"); st.Candidates == 0 {
		t.Fatal("indexed: Chicago Cubs must leave candidates")
	}

	// Every type of Ron Santo is in over half the demo tables, so the
	// frequent-type filter leaves him no signature and the prefilter no
	// candidate.
	santo, err := sys.ParseQuery("Ron Santo")
	if err != nil {
		t.Fatal(err)
	}
	fallbacks := obs.ShardRescattersTotal().Value()
	st := search("empty prefilter", santo, "probe", "vote", "mapping", "score", "rank")
	if vote := st.Trace.Stage("vote"); vote.Items != 0 {
		t.Fatalf("empty prefilter: vote stage %+v, want 0 items", vote)
	}
	if got := obs.ShardRescattersTotal().Value() - fallbacks; got != 1 {
		t.Fatalf("empty prefilter: thetis_shard_rescatters_total moved by %d, want 1", got)
	}
	if got := legs.Value() - legsBefore; got != 0 {
		t.Fatalf("local searches ran %d scatter legs", got)
	}
}

// TestIndexItemsGaugeTracksIndex: thetis_index_items equals the active
// LSEI's NumItems after every install (build, shard artifacts,
// σ re-selection) and every mutation (add, remove, and the filter
// re-signs they trigger).
func TestIndexItemsGaugeTracksIndex(t *testing.T) {
	kgEnv, tables, _ := batteryEnv(t)
	gauge := obs.IndexItems(nil)
	check := func(label string, sys *System) {
		t.Helper()
		want := 0
		if ix := sys.index.Load(); ix != nil {
			want = ix.NumItems()
		}
		if got := gauge.Value(); got != float64(want) {
			t.Fatalf("%s: thetis_index_items = %v, NumItems = %d", label, got, want)
		}
	}

	sys := New(kgEnv.Graph)
	for _, tb := range tables[:200] {
		sys.AddTable(tb)
	}
	sys.UseTypeSimilarity()
	sys.BuildIndex(DefaultIndexConfig())
	check("build", sys)

	resigns := obs.IndexFilterResignsTotal(nil).Value()
	for _, tb := range tables[200:] {
		sys.AddTable(tb)
	}
	check("add", sys)
	for id := TableID(0); id < 150; id += 3 {
		if err := sys.RemoveTable(id); err != nil {
			t.Fatal(err)
		}
	}
	check("remove", sys)
	if obs.IndexFilterResignsTotal(nil).Value() == resigns {
		t.Fatal("no mutation re-signed an item; the corpus no longer exercises filter flips")
	}

	cfg := DefaultIndexConfig()
	daemon := New(kgEnv.Graph)
	for _, tb := range tables[:100] {
		daemon.AddTable(tb)
	}
	daemon.UseTypeSimilarity()
	if err := daemon.ApplyShardArtifacts(sys.ComputeShardArtifacts(&cfg, 1)); err != nil {
		t.Fatal(err)
	}
	check("shard artifacts", daemon)

	daemon.UseTypeSimilarity()
	if daemon.HasIndex() {
		t.Fatal("selecting a similarity must drop the index (signatures depend on σ)")
	}
	check("σ re-selection", daemon)
}

// TestSearchShardPanicsWithoutSimilarity: a scatter leg, like a search,
// refuses to run before a similarity is selected.
func TestSearchShardPanicsWithoutSimilarity(t *testing.T) {
	sys, q := buildDemoSystem(t)
	defer func() {
		if recover() == nil {
			t.Error("SearchShard without a similarity did not panic")
		}
	}()
	sys.SearchShard(context.Background(), q, 1, ShardSearchOptions{})
}
