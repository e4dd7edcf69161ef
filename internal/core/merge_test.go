package core

import (
	"math/rand"
	"slices"
	"testing"

	"thetis/internal/lake"
)

// mergeReference is the obviously correct merge: concatenate and sort with
// the shared comparator.
func mergeReference(lists [][]Result, k int) []Result {
	var all []Result
	for _, l := range lists {
		all = append(all, l...)
	}
	slices.SortFunc(all, compareResults)
	if k >= 0 && k < len(all) {
		all = all[:k]
	}
	return all
}

func equalResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomRankings generates per-shard rankings over disjoint ID ranges with
// deliberately colliding scores (small score alphabet) so cross-shard ties
// are common.
func randomRankings(rng *rand.Rand, shards, maxLen int) [][]Result {
	lists := make([][]Result, shards)
	next := 0
	for s := range lists {
		n := rng.Intn(maxLen + 1)
		for i := 0; i < n; i++ {
			lists[s] = append(lists[s], Result{
				Table: lake.TableID(next),
				Score: float64(rng.Intn(4)) / 4, // few distinct scores → many ties
			})
			next++
		}
		slices.SortFunc(lists[s], compareResults)
	}
	return lists
}

func TestMergeRankedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		lists := randomRankings(rng, 1+rng.Intn(5), 8)
		for _, k := range []int{-1, 0, 1, 3, 100} {
			got := MergeRanked(lists, k)
			want := mergeReference(lists, k)
			if !equalResults(got, want) {
				t.Fatalf("trial %d k=%d: merged %v, want %v (inputs %v)", trial, k, got, want, lists)
			}
		}
	}
}

func TestMergeRankedTieBreaksOnTableID(t *testing.T) {
	// Two shards, every score equal: the merged order must be ascending
	// table ID regardless of which list holds which IDs.
	a := []Result{{Table: 1, Score: 0.5}, {Table: 4, Score: 0.5}}
	b := []Result{{Table: 0, Score: 0.5}, {Table: 3, Score: 0.5}}
	want := []Result{{Table: 0, Score: 0.5}, {Table: 1, Score: 0.5}, {Table: 3, Score: 0.5}, {Table: 4, Score: 0.5}}
	if got := MergeRanked([][]Result{a, b}, -1); !equalResults(got, want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
	// Shard-order independence: swapping the input lists changes nothing.
	if got := MergeRanked([][]Result{b, a}, -1); !equalResults(got, want) {
		t.Fatalf("swapped merge %v, want %v", got, want)
	}
}

func TestMergeRankedShardOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		lists := randomRankings(rng, 4, 6)
		want := MergeRanked(lists, 10)
		perm := rng.Perm(len(lists))
		shuffled := make([][]Result, len(lists))
		for i, p := range perm {
			shuffled[i] = lists[p]
		}
		if got := MergeRanked(shuffled, 10); !equalResults(got, want) {
			t.Fatalf("trial %d: permuted inputs changed the merge: %v vs %v", trial, got, want)
		}
	}
}

func TestMergeRankedTruncation(t *testing.T) {
	lists := [][]Result{
		{{Table: 0, Score: 0.9}, {Table: 2, Score: 0.1}},
		{{Table: 1, Score: 0.5}},
	}
	if got := MergeRanked(lists, 2); len(got) != 2 || got[0].Table != 0 || got[1].Table != 1 {
		t.Fatalf("top-2 merge wrong: %v", got)
	}
	if got := MergeRanked(lists, 0); len(got) != 0 {
		t.Fatalf("k=0 should be empty, got %v", got)
	}
	if got := MergeRanked(nil, 5); len(got) != 0 {
		t.Fatalf("no inputs should merge to empty, got %v", got)
	}
}

func TestMergeRankedRepairsUnsortedInput(t *testing.T) {
	// A foreign Shard implementation might violate the ordering contract;
	// the merge must still come out globally ordered, and must not mutate
	// the caller's slice while repairing it.
	bad := []Result{{Table: 5, Score: 0.2}, {Table: 3, Score: 0.9}}
	badCopy := append([]Result(nil), bad...)
	good := []Result{{Table: 1, Score: 0.6}}
	got := MergeRanked([][]Result{bad, good}, -1)
	want := []Result{{Table: 3, Score: 0.9}, {Table: 1, Score: 0.6}, {Table: 5, Score: 0.2}}
	if !equalResults(got, want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
	if !equalResults(bad, badCopy) {
		t.Fatalf("input mutated: %v, was %v", bad, badCopy)
	}
}
