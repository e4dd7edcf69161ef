package core

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/obs"
)

// Search-pipeline metrics (see docs/OBSERVABILITY.md), cached as package
// handles so the hot path pays one atomic update each.
var (
	mSearches     = obs.SearchesTotal()
	mSearchSecs   = obs.SearchSeconds()
	mStageMapping = obs.SearchStageSeconds("mapping")
	mStageScore   = obs.SearchStageSeconds("score")
	mStageRank    = obs.SearchStageSeconds("rank")
	mCandidates   = obs.SearchCandidates()
	mTruncated    = obs.SearchTruncatedTotal()
	mSearchPanics = obs.PanicsTotal(nil, "search")
	mSigmaHits    = obs.SigmaCacheHitsTotal()
	mSigmaMisses  = obs.SigmaCacheMissesTotal()
	mSigmaBytes   = obs.SigmaCacheBytes()
	mSigmaRatio   = obs.SigmaCacheHitRatio()
	mPruned       = obs.SearchPrunedTotal()
	mFallbacks    = obs.ShardRescattersTotal() // shared with coordinator rescatters
)

func kgEntity(x uint32) kg.EntityID { return kg.EntityID(x) }

// Engine is the semantic table search engine of Algorithm 1. Configure it
// with a similarity σ (types or embeddings), an informativeness weighting,
// and a row aggregation, then call Search. An Engine is safe for concurrent
// searches.
type Engine struct {
	Lake *lake.Lake
	Sim  Similarity
	Inf  Informativeness
	Agg  Aggregation
	// Parallelism bounds the scoring worker count; 0 means GOMAXPROCS.
	Parallelism int
	// ExactMapping makes a search time µ for every table rather than
	// sample one in mappingSample, so Stats.MappingTime is a measurement,
	// not an estimate. The table-scoring microbenchmark sets it.
	ExactMapping bool
}

// newSigmaCache returns the σ cache for one search of q over the engine's
// σ, its dense cells drawn from slab.
func (eng *Engine) newSigmaCache(q Query, slab *sigmaSlab) *SigmaCache {
	return newSigmaCache(q, eng.Sim, eng.Lake.Graph.NumEntities(), slab)
}

// viewOf returns what scoreTable reads of table tid of l under c's σ, or
// false for a removed or unknown table. Under a keyed σ that is the table's
// key groups, memoized on the lake per σ, and, when holds (some query
// entity is in the table, so its σ pass needs scorer.identity), its column
// index; under any other σ the column index and the row count.
func viewOf(l *lake.Lake, c *SigmaCache, tid lake.TableID, holds bool) (tableView, bool) {
	if c.keyed != nil {
		g := l.KeyGroups(tid, c.keyed, c.keyOf)
		if g == nil {
			return tableView{}, false
		}
		v := tableView{rows: g.NumRows, groups: g}
		if holds {
			v.ci = l.ColumnIndex(tid)
		}
		return v, true
	}
	t := l.Table(tid)
	if t == nil {
		return tableView{}, false
	}
	return tableView{rows: t.NumRows(), ci: l.ColumnIndex(tid)}, true
}

// holdsAny reports whether table tid of l mentions one of entities, from
// the lake's sorted posting lists.
func holdsAny(l *lake.Lake, entities []kg.EntityID, tid lake.TableID) bool {
	for _, e := range entities {
		if _, ok := slices.BinarySearch(l.TablesWith(e), tid); ok {
			return true
		}
	}
	return false
}

// mappingSample is the share of tables whose µ a search times
// (Stats.MappingTime): one in mappingSample of a worker's tables, by
// position, from a phase that advances with every search (mappingPhase),
// so that over successive searches every position — the first, which pays
// the search's cold σ rows, too — is timed equally often. The worker scales
// the sum to all of its tables, capped at the worker's own wall time, which
// its µ time cannot exceed. A worker with fewer than 2 × mappingSample
// tables, or any worker of an Engine with ExactMapping, times every one.
const mappingSample = 16

// mappingPhase counts searches; a search's sampling phase is its count
// modulo mappingSample.
var mappingPhase atomic.Uint32

// NewEngine builds an engine with IDF informativeness and MAX aggregation,
// the configuration the paper recommends.
func NewEngine(l *lake.Lake, sim Similarity) *Engine {
	return &Engine{Lake: l, Sim: sim, Inf: IDFInformativeness(l), Agg: AggregateMax}
}

// Result is one scored table.
type Result struct {
	Table lake.TableID
	Score float64
}

// Stats reports how a search spent its time, backing the runtime
// experiments of Section 7.3.
type Stats struct {
	// Candidates is the number of tables considered (after prefiltering).
	Candidates int
	// Scored is the number of tables scored in full with SemRel > 0.
	Scored int
	// Pruned is the number of tables a top-k search (k > 0) bounded out:
	// after the σ pass, the best score any column mapping could give them
	// was below the k-th best score found so far, so µ and the tuple scoring
	// were skipped. Pruning never changes the returned ranking. With
	// Parallelism > 1 the split between Scored and Pruned depends on worker
	// timing and only the ranking is deterministic; at Parallelism = 1 both
	// counts are too.
	Pruned int
	// MappingTime is CPU time spent in the query-to-column assignment μ
	// (the σ pass that builds S, then the mapping of every tuple), summed
	// across all tables and all scoring workers. With Parallelism > 1 it
	// can therefore exceed TotalTime; the wall-clock stage breakdown lives
	// in Trace (the mapping stage carries this same value in its CPU field,
	// inside the score stage's wall time).
	//
	// A search does not read the clock for every table. A worker with
	// fewer than 32 tables times each one; a longer worker times one table
	// in 16, at positions whose phase advances with every search, and
	// scales their sum by its table count over the timed count, capped at
	// the worker's wall time. The value is therefore an estimate for one
	// search; Engine.ExactMapping times every table instead, and
	// Engine.ScoreTable, the per-table microbenchmark of Section 7.3, times
	// its table exactly.
	MappingTime time.Duration
	// TotalTime is the wall-clock duration of the engine search. It does
	// not include LSEI prefiltering, which runs before the engine; the
	// enclosing Trace's Total does.
	TotalTime time.Duration
	// Truncated reports that the search's context was cancelled or hit its
	// deadline before every candidate was scored. The returned results are
	// a best-effort subset: every table that was scored before the cutoff,
	// correctly ranked — graceful degradation, not an error.
	Truncated bool
	// Panicked counts candidate tables whose scoring panicked (poisoned
	// data reaching a σ or aggregation). Each panic is contained to its
	// table — recovered, counted on thetis_panics_total{site="search"}, and
	// excluded from the results — instead of crashing the process.
	Panicked int
	// SigmaHits and SigmaMisses count σ evaluations served from and
	// filled into the query-scoped SigmaCache during this search. Both
	// are zero on a batch member answered from an earlier, equal query of
	// the same batch (nothing is scored). Their sum is the total number of
	// σ lookups the scoring stage issued through the cache: per table, one
	// per (distinct query entity, distinct entity of a column), or under
	// type σ, which the cache keys by interned type set, one per
	// (distinct query entity, type set of a column) — MAX aggregation and
	// repeated tuples read the table's one σ pass, not the cache, and a
	// type-σ table that holds a query entity corrects that entity's own
	// cells to σ = 1 from the table's column index, without a lookup. A
	// miss fills one cache cell: a (query entity, corpus entity) pair, or
	// under type σ a (query entity, type set) pair, so a type-σ search
	// misses at most once per distinct query entity and type set (plus
	// racing fills).
	SigmaHits, SigmaMisses int64
	// ShardErrors explains, in human-readable form, why shard legs of a
	// scatter-gather search contributed nothing: a contained panic, a
	// remote shard whose every replica/retry failed, and so on. Empty on
	// unsharded searches and on sharded searches where every leg
	// answered. A non-empty value always travels with Truncated=true —
	// the results are still a correctly ranked prefix, never an error —
	// and distinguishes "nothing matched" from "shards were unreachable".
	ShardErrors []string
	// Trace is the structured per-stage breakdown of this search
	// (mapping → score → rank, with prefilter probe/vote stages prepended
	// by SearchWithIndex when an LSEI is active). Always non-nil on
	// searches executed by Search/SearchCandidates.
	Trace *obs.Trace
}

// Search scores every table of the lake against q and returns the top-k
// results (k < 0 returns all) in descending score order. Tables with
// SemRel(Q,T) = 0 are never returned. With k > 0 a table that provably
// cannot reach the top k is not scored in full (Stats.Pruned); the results
// are the first k of the k < 0 ranking, bit for bit. It is SearchContext
// with a background context (never cancelled).
func (eng *Engine) Search(q Query, k int) ([]Result, Stats) {
	return eng.SearchCandidatesContext(context.Background(), q, nil, k)
}

// SearchContext is Search honoring cancellation and deadlines: scoring
// workers check ctx between tables (the cancellation granule is one table),
// so an expiring deadline returns promptly with the best-effort prefix of
// tables scored so far, marked Stats.Truncated. Deadlines are checked
// against the clock as well as ctx.Done (see cancelProbe), so truncation
// does not depend on the runtime scheduling the context's timer goroutine.
func (eng *Engine) SearchContext(ctx context.Context, q Query, k int) ([]Result, Stats) {
	return eng.SearchCandidatesContext(ctx, q, nil, k)
}

// SearchCandidates is Search restricted to a candidate table set (nil =
// the whole lake), the entry point used after LSEI prefiltering.
func (eng *Engine) SearchCandidates(q Query, candidates []lake.TableID, k int) ([]Result, Stats) {
	return eng.SearchCandidatesContext(context.Background(), q, candidates, k)
}

// SearchCandidatesContext is SearchCandidates honoring cancellation (see
// SearchContext for the truncation contract).
func (eng *Engine) SearchCandidatesContext(ctx context.Context, q Query, candidates []lake.TableID, k int) ([]Result, Stats) {
	slab := takeSigmaSlab()
	defer sigmaSlabs.Put(slab)
	return eng.searchCandidates(ctx, q, candidates, k, slab)
}

// searchCandidates is SearchCandidatesContext with the σ cache's dense
// cells drawn from slab. Every scoring worker has returned when it does, so
// the caller may hand slab to the next search.
func (eng *Engine) searchCandidates(ctx context.Context, q Query, candidates []lake.TableID, k int, slab *sigmaSlab) ([]Result, Stats) {
	start := time.Now()
	tr := obs.NewTrace("search")
	if candidates == nil {
		// Full scan enumerates the live tables only — after removals the ID
		// space has tombstoned slots a dense 0..N-1 walk would mis-cover.
		candidates = eng.Lake.LiveTableIDs()
	}
	stats := Stats{Candidates: len(candidates), Trace: tr}
	mSearches.Inc()
	mCandidates.Observe(float64(len(candidates)))
	if len(q) == 0 || len(candidates) == 0 {
		stats.TotalTime = time.Since(start)
		tr.Total = stats.TotalTime
		mSearchSecs.Observe(stats.TotalTime.Seconds())
		return nil, stats
	}

	workers := eng.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(candidates) {
		workers = len(candidates)
	}

	stop := newCancelProbe(ctx)
	var truncated atomic.Bool
	if ctx.Err() != nil {
		truncated.Store(true)
		workers = 0 // context already dead: skip scoring entirely
	}

	type partial struct {
		results      []Result
		mapping      time.Duration
		panicked     int
		pruned       int
		hits, misses int64
	}
	// sigma is the query-scoped σ cache, shared by every scoring worker of
	// this search so each distinct (query entity, cell entity) pair is
	// scored exactly once per query.
	sigma := eng.newSigmaCache(q, slab)
	// Under a keyed σ, the tables that hold a query entity are marked once
	// for the workers, from the lake's posting lists.
	if sigma.keyed != nil {
		slab.holders.mark(eng.Lake, sigma.entities)
	}
	// floor is the k-th best score the workers have found so far; tables
	// that cannot reach it are pruned (scorer.floor). Nil ranks everything.
	var floor *scoreFloor
	if k > 0 {
		floor = new(scoreFloor)
	}
	// Each worker gets its own scorer (scratch rows); the SigmaCache and the
	// floor are the parts they share.
	newWorkerScorer := func() *scorer {
		sc := newScorer(q, eng.Inf, eng.Agg, sigma)
		sc.floor = floor
		return sc
	}
	// scoreOne contains a panic to the table that caused it: scoring worker
	// goroutines are outside any net/http recovery, so an uncontained panic
	// here would kill the whole process.
	scoreOne := func(sc *scorer, tid lake.TableID, timed bool) (score float64, mt time.Duration, panicked bool) {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				mSearchPanics.Inc()
			}
		}()
		v, ok := viewOf(eng.Lake, sigma, tid, slab.holders.has(tid))
		if !ok {
			// Removed table: a stale candidate (e.g. from an index snapshot
			// predating the removal) scores 0 rather than crashing a worker.
			return 0, 0, false
		}
		score, mt = sc.scoreTable(v, timed)
		return
	}
	phase := int64(mappingPhase.Add(1) % mappingSample)
	parts := make([]partial, workers)
	var wg sync.WaitGroup
	scoreStart := time.Now()
	chunk := 0
	if workers > 0 {
		chunk = (len(candidates) + workers - 1) / workers
	}
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(candidates) {
			hi = len(candidates)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			sc := newWorkerScorer()
			workerStart := time.Now()
			// visited counts the worker's tables and timed the sampled ones,
			// whose µ time sampled sums.
			var visited, timed int64
			var sampled time.Duration
			// merge folds a scorer's local counters into the worker's part.
			merge := func() {
				parts[w].hits += sc.hits
				parts[w].misses += sc.misses
				parts[w].pruned += sc.pruned
			}
			defer func() {
				merge()
				if timed > 0 {
					est := time.Duration(int64(sampled) * visited / timed)
					parts[w].mapping = min(est, time.Since(workerStart))
				}
			}()
			// top holds this worker's k best scores: once it has k, its
			// smallest is a score k tables reach, and the floor rises to it.
			top := kBest{k: k, scores: make([]float64, 0, min(max(k, 0), hi-lo))}
			for _, tid := range candidates[lo:hi] {
				if stop.expired() {
					truncated.Store(true)
					return
				}
				sample := eng.ExactMapping || hi-lo < 2*mappingSample || (visited+phase)%mappingSample == 0
				score, mt, panicked := scoreOne(sc, tid, sample)
				visited++
				if sample {
					timed++
					sampled += mt
				}
				if panicked {
					parts[w].panicked++
					// The scorer's scratch may be mid-update; rebuild it.
					// (SigmaCache entries are stored whole, so the shared
					// cache stays valid.)
					merge()
					sc = newWorkerScorer()
					continue
				}
				if score > 0 {
					parts[w].results = append(parts[w].results, Result{Table: tid, Score: score})
					if floor != nil {
						floor.raise(top.offer(score))
					}
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	scoreWall := time.Since(scoreStart)

	var results []Result
	for _, p := range parts {
		results = append(results, p.results...)
		stats.MappingTime += p.mapping
		stats.Panicked += p.panicked
		stats.Pruned += p.pruned
		stats.SigmaHits += p.hits
		stats.SigmaMisses += p.misses
	}
	sigma.addCounts(stats.SigmaHits, stats.SigmaMisses)
	mSigmaHits.Add(stats.SigmaHits)
	mSigmaMisses.Add(stats.SigmaMisses)
	mSigmaBytes.Set(float64(sigma.MemoryBytes()))
	if total := stats.SigmaHits + stats.SigmaMisses; total > 0 {
		mSigmaRatio.Set(float64(stats.SigmaHits) / float64(total))
	}
	mPruned.Add(int64(stats.Pruned))
	stats.Truncated = truncated.Load()
	if stats.Truncated {
		mTruncated.Inc()
	}
	// The mapping stage runs inside the scoring workers, so its wall time
	// is part of the score stage; it is reported as cross-worker CPU time.
	tr.Add(obs.Stage{Name: "mapping", CPU: stats.MappingTime, Items: len(candidates)})
	tr.Add(obs.Stage{Name: "score", Wall: scoreWall, Items: len(candidates)})
	rank := tr.StartStage("rank")
	slices.SortFunc(results, compareResults)
	stats.Scored = len(results)
	if k >= 0 && len(results) > k {
		results = results[:k]
	}
	rank.SetItems(stats.Scored)
	rankWall := rank.End()
	stats.TotalTime = time.Since(start)
	tr.Total = stats.TotalTime
	mStageMapping.Observe(stats.MappingTime.Seconds())
	mStageScore.Observe(scoreWall.Seconds())
	mStageRank.Observe(rankWall.Seconds())
	mSearchSecs.Observe(stats.TotalTime.Seconds())
	return results, stats
}

// ScoreTable computes SemRel(Q, T) for a single table, returning the score
// and the time spent in the column-mapping step (the microbenchmark of
// Section 7.3), timed exactly. It shares the search path's memoization
// (query-scoped σ cache, column pre-aggregation, key groups) and its σ
// pass, so its score is bit-identical to the one the same table earns
// inside Search. A removed or unknown table scores 0, as a stale candidate
// does inside Search.
func (eng *Engine) ScoreTable(q Query, tid lake.TableID) (float64, time.Duration) {
	slab := takeSigmaSlab()
	defer sigmaSlabs.Put(slab)
	c := eng.newSigmaCache(q, slab)
	v, ok := viewOf(eng.Lake, c, tid, c.keyed != nil && holdsAny(eng.Lake, c.entities, tid))
	if !ok {
		return 0, 0
	}
	return newScorer(q, eng.Inf, eng.Agg, c).scoreTable(v, true)
}

// RankedTables projects results onto table IDs as plain ints, the shape the
// metrics package consumes.
func RankedTables(results []Result) []int {
	out := make([]int, len(results))
	for i, r := range results {
		out[i] = int(r.Table)
	}
	return out
}
