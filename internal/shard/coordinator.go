package shard

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"thetis/internal/core"
	"thetis/internal/obs"
)

// Coordinator scatters a query across shards concurrently and gathers the
// per-shard rankings into one global top-k. It owns no corpus state of its
// own, so it is safe for concurrent searches as long as its shards are.
//
// Partial responses compose: a shard that truncates (cancellation,
// deadline) or panics (contained, counted on thetis_panics_total
// {site="shard"}) contributes its correctly ranked prefix — possibly
// empty — and the merged Stats carry Truncated, so the caller sees exactly
// the ranked-prefix semantics a single truncated search has.
type Coordinator struct {
	shards []Searcher
	legs   []legMetrics
	merge  *obs.Histogram
	resc   *obs.Counter
	panics *obs.Counter
}

// legMetrics are one shard's scatter-leg handles, cached at construction.
type legMetrics struct {
	searches  *obs.Counter
	seconds   *obs.Histogram
	truncated *obs.Counter
}

// NewCoordinator builds a coordinator over the given shards. Shard order
// fixes the metric/trace labels ("0", "1", …) but never the ranking: the
// merge tie-breaks on global table ID, so results are independent of both
// shard order and arrival order.
func NewCoordinator(shards ...Searcher) *Coordinator {
	c := &Coordinator{
		shards: shards,
		legs:   make([]legMetrics, len(shards)),
		merge:  obs.ShardMergeSeconds(),
		resc:   obs.ShardRescattersTotal(),
		panics: obs.PanicsTotal(nil, "shard"),
	}
	for i := range shards {
		label := strconv.Itoa(i)
		c.legs[i] = legMetrics{
			searches:  obs.ShardSearchesTotal(label),
			seconds:   obs.ShardSearchSeconds(label),
			truncated: obs.ShardTruncatedTotal(label),
		}
	}
	return c
}

// leg is one shard's response to one scatter round.
type leg struct {
	results []core.Result
	stats   core.Stats
	wall    time.Duration
}

// Search scatters q to every shard, merges the per-shard top-k streams,
// and aggregates their stats: counters sum, Truncated ORs, TotalTime is
// the slowest shard's engine time (the critical path), and the Trace
// carries every shard's stages labeled with its shard plus the final merge
// stage — the scatter-gather view served on /debug/trace.
//
// When the prefilter prunes everything on every shard (total candidate
// count zero) and the context is still alive, Search rescatters once with
// ForceFullScan — the sharded equivalent of the single-node full-scan
// fallback, decided globally so that sharding never changes what a query
// returns.
func (c *Coordinator) Search(ctx context.Context, q core.Query, k int) ([]core.Result, core.Stats) {
	start := time.Now()
	legs := c.scatter(ctx, q, k, SearchOptions{})
	candidates := 0
	for i := range legs {
		candidates += legs[i].stats.Candidates
	}
	if candidates == 0 && ctx.Err() == nil {
		c.resc.Inc()
		forced := c.scatter(ctx, q, k, SearchOptions{ForceFullScan: true})
		return c.gather(start, k, legs, forced)
	}
	return c.gather(start, k, legs, nil)
}

// scatter runs one concurrent fan-out round. The caller's goroutine takes
// the first leg and every other shard gets its own, so a one-shard scatter
// spawns nothing; a panicking shard is contained to an empty truncated leg
// so the round always completes.
func (c *Coordinator) scatter(ctx context.Context, q core.Query, k int, opts SearchOptions) []leg {
	legs := make([]leg, len(c.shards))
	var wg sync.WaitGroup
	for i := 1; i < len(c.shards); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.runLeg(ctx, i, &legs[i], q, k, opts)
		}(i)
	}
	if len(c.shards) > 0 {
		c.runLeg(ctx, 0, &legs[0], q, k, opts)
	}
	wg.Wait()
	return legs
}

// runLeg runs shard i's leg of one round into out.
func (c *Coordinator) runLeg(ctx context.Context, i int, out *leg, q core.Query, k int, opts SearchOptions) {
	legStart := time.Now()
	defer func() {
		if r := recover(); r != nil {
			c.panics.Inc()
			*out = leg{stats: core.Stats{
				Truncated:   true,
				ShardErrors: []string{fmt.Sprintf("panic: %v", r)},
				Trace:       obs.NewTrace("search"),
			}}
		}
		out.wall = time.Since(legStart)
		c.legs[i].searches.Inc()
		c.legs[i].seconds.Observe(out.wall.Seconds())
		if out.stats.Truncated {
			c.legs[i].truncated.Inc()
		}
	}()
	out.results, out.stats = c.shards[i].SearchShard(ctx, q, k, opts)
}

// gather merges the deciding round's rankings and stats. When a forced
// round ran, its legs decide the result; the first round still contributes
// its (empty-prefilter) stages to the trace so the rescatter is visible.
func (c *Coordinator) gather(start time.Time, k int, first, forced []leg) ([]core.Result, core.Stats) {
	tr := obs.NewTrace("search")
	addStages := func(legs []leg) {
		for i := range legs {
			label := strconv.Itoa(i)
			tr.Add(obs.Stage{Name: "scatter", Shard: label, Wall: legs[i].wall, Items: len(legs[i].results)})
			if legs[i].stats.Trace == nil {
				continue
			}
			for _, st := range legs[i].stats.Trace.Stages {
				st.Shard = label
				tr.Add(st)
			}
		}
	}
	addStages(first)
	deciding := first
	if forced != nil {
		addStages(forced)
		deciding = forced
	}
	agg := core.Stats{Trace: tr}
	lists := make([][]core.Result, len(deciding))
	for i := range deciding {
		st := &deciding[i].stats
		agg.Candidates += st.Candidates
		agg.Scored += st.Scored
		agg.Pruned += st.Pruned
		agg.MappingTime += st.MappingTime
		agg.Panicked += st.Panicked
		agg.SigmaHits += st.SigmaHits
		agg.SigmaMisses += st.SigmaMisses
		agg.Truncated = agg.Truncated || st.Truncated
		for _, e := range st.ShardErrors {
			agg.ShardErrors = append(agg.ShardErrors, "shard "+strconv.Itoa(i)+": "+e)
		}
		if st.TotalTime > agg.TotalTime {
			agg.TotalTime = st.TotalTime
		}
		lists[i] = deciding[i].results
	}
	mergeStart := time.Now()
	results := core.MergeRanked(lists, k)
	mergeWall := time.Since(mergeStart)
	c.merge.Observe(mergeWall.Seconds())
	tr.Add(obs.Stage{Name: "merge", Wall: mergeWall, Items: len(results)})
	tr.Total = time.Since(start)
	return results, agg
}
