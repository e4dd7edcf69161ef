package core

import (
	"context"
	"sort"
)

// Over-specialized queries — the paper observes that "the 5-tuple queries
// [become] easily over-specialized", hurting recall, and lists improving
// this case as future work. RelaxedSearch implements the natural remedy the
// informativeness weighting enables: when a query returns too few
// sufficiently relevant tables, drop the least informative entity from each
// tuple (the weakest constraint) and retry, down to single-entity tuples.

// RelaxOptions controls relaxed search.
type RelaxOptions struct {
	// K is the number of results wanted.
	K int
	// MinResults triggers relaxation when fewer results score at least
	// MinScore. Zero means K.
	MinResults int
	// MinScore is the relevance bar results must clear (default 0, i.e.
	// any returned table counts).
	MinScore float64
	// MaxRounds bounds the number of relaxation rounds (default: relax
	// until tuples are single entities).
	MaxRounds int
}

// RelaxedSearch runs Search and, while the result set is too small,
// progressively relaxes the query by removing its least informative entity
// (per the engine's Informativeness) from every tuple containing it. It
// returns the results of the last round together with the query that
// produced them.
func (eng *Engine) RelaxedSearch(q Query, opt RelaxOptions) ([]Result, Query) {
	return eng.RelaxedSearchContext(context.Background(), q, opt)
}

// RelaxedSearchContext is RelaxedSearch honoring cancellation: each round's
// search is truncatable (see SearchContext), and no further relaxation
// round starts once the context is dead — the last round's best-effort
// results are returned.
func (eng *Engine) RelaxedSearchContext(ctx context.Context, q Query, opt RelaxOptions) ([]Result, Query) {
	return RelaxedSearchWith(ctx, q, opt, eng.Inf, func(ctx context.Context, q Query, k int) []Result {
		res, _ := eng.SearchContext(ctx, q, k)
		return res
	})
}

// RelaxedSearchWith is the relaxation loop over any search function and
// informativeness — an engine's own, or a scatter over several engines
// sharing global weights.
func RelaxedSearchWith(ctx context.Context, q Query, opt RelaxOptions, inf Informativeness, search func(context.Context, Query, int) []Result) ([]Result, Query) {
	if opt.MinResults <= 0 {
		opt.MinResults = opt.K
	}
	rounds := opt.MaxRounds
	if rounds <= 0 {
		rounds = q.NumEntities()
	}
	current := q
	results := search(ctx, current, opt.K)
	for round := 0; round < rounds; round++ {
		if ctx.Err() != nil {
			break
		}
		if countAbove(results, opt.MinScore) >= opt.MinResults {
			break
		}
		relaxed, ok := relaxOnce(current, inf)
		if !ok {
			break
		}
		current = relaxed
		results = search(ctx, current, opt.K)
	}
	return results, current
}

func countAbove(results []Result, min float64) int {
	n := 0
	for _, r := range results {
		if r.Score >= min {
			n++
		}
	}
	return n
}

// relaxOnce removes the distinct entity with the lowest informativeness
// from every tuple. It reports false when no tuple can shrink further.
func relaxOnce(q Query, inf Informativeness) (Query, bool) {
	distinct := q.DistinctEntities()
	if len(distinct) == 0 {
		return q, false
	}
	sort.Slice(distinct, func(i, j int) bool {
		wi, wj := inf(distinct[i]), inf(distinct[j])
		if wi != wj {
			return wi < wj
		}
		return distinct[i] < distinct[j]
	})
	// Drop the least informative entity that leaves every tuple non-empty.
	for _, victim := range distinct {
		out := make(Query, 0, len(q))
		changed := false
		valid := true
		for _, t := range q {
			nt := make(Tuple, 0, len(t))
			for _, e := range t {
				if e == victim {
					changed = true
					continue
				}
				nt = append(nt, e)
			}
			if len(nt) == 0 {
				valid = false
				break
			}
			out = append(out, nt)
		}
		if changed && valid {
			return out, true
		}
	}
	return q, false
}
