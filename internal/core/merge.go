package core

import (
	"cmp"
	"slices"
)

// MergeRanked merges per-shard rankings into one global top-k. Each input
// list is expected in the engine's result order — descending score,
// ascending table ID within equal scores — and the merged output preserves
// exactly that order, truncated to k (k < 0 keeps everything).
//
// The tie-break on table ID is what makes scatter-gather deterministic:
// when tables in different shards earn the same score, the merged ranking
// must not depend on which shard answered first, so ties are always broken
// toward the smaller table ID — the same rule Engine.Search applies within
// one shard. Inputs that violate the expected order (a foreign Shard
// implementation, say) are detected and sorted first, so the output order
// holds unconditionally.
//
// Table IDs are taken as-is: shards own disjoint ID ranges, so the merge
// never deduplicates.
func MergeRanked(lists [][]Result, k int) []Result {
	total := 0
	live := make([][]Result, 0, len(lists))
	for _, l := range lists {
		if len(l) == 0 {
			continue
		}
		if !slices.IsSortedFunc(l, compareResults) {
			l = slices.Clone(l)
			slices.SortFunc(l, compareResults)
		}
		live = append(live, l)
		total += len(l)
	}
	want := total
	if k >= 0 && k < want {
		want = k
	}
	out := make([]Result, 0, want)
	// K-way merge over the list heads. Shard counts are small (tens), so a
	// linear scan for the minimum beats heap bookkeeping and stays obviously
	// deterministic.
	for len(out) < want {
		best := -1
		for i, l := range live {
			if best < 0 || compareResults(l[0], live[best][0]) < 0 {
				best = i
			}
		}
		out = append(out, live[best][0])
		if live[best] = live[best][1:]; len(live[best]) == 0 {
			live = append(live[:best], live[best+1:]...)
		}
	}
	return out
}

// compareResults is the ranking order shared by Engine.Search and
// MergeRanked: higher scores first, ties broken toward the smaller table ID.
// The order is total, so an unstable sort yields one ranking.
func compareResults(a, b Result) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Table, b.Table)
}
