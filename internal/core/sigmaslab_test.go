package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"thetis/internal/kg"
	"thetis/internal/lake"
)

// slabQueries alternates one-entity and five-tuple queries, so a reused
// slab's slot count shrinks and grows from search to search, over entity
// sets that are disjoint from and overlap the ones before them.
func slabQueries() []Query {
	tuple := func(ids ...int) Tuple {
		tu := make(Tuple, len(ids))
		for i, id := range ids {
			tu[i] = kg.EntityID(id)
		}
		return tu
	}
	return []Query{
		{tuple(0)},
		{tuple(1, 2), tuple(3, 4), tuple(5, 1), tuple(2, 6), tuple(7, 3)},
		{tuple(8)},
		{tuple(1, 2), tuple(3, 9), tuple(10, 1), tuple(2, 6), tuple(7, 11)},
		{tuple(2)},
		{tuple(12, 13), tuple(14), tuple(15, 16, 17), tuple(12), tuple(0)},
		{tuple(0)},
	}
}

// slabEngines returns, per σ, an engine over l with par scoring workers.
func slabEngines(l *lake.Lake, g *kg.Graph, par int) map[string]*Engine {
	sims := map[string]Similarity{
		"types":      NewTypeJaccard(g),
		"embeddings": NewEmbeddingCosine(g, randomEmbeddings(rand.New(rand.NewSource(2)), g, 16)),
	}
	out := map[string]*Engine{}
	for name, sim := range sims {
		out[name] = &Engine{Lake: l, Sim: sim, Inf: IDFInformativeness(l), Parallelism: par}
	}
	return out
}

// TestSigmaSlabReuseMatchesFresh runs one engine over a sequence of queries
// with one reused slab, and checks every ranking against the oracle, which
// memoizes nothing. Every search is a full scan, so each reads the rows the
// one before it wrote; a row read under a new generation must be reset
// before it is trusted: its cells hold the previous search's σ, in that
// search's slot layout.
func TestSigmaSlabReuseMatchesFresh(t *testing.T) {
	l, g := randomCorpus(7, 24, 120, 40, 12, 4)
	qs := slabQueries()
	for _, par := range []int{1, 4} {
		for name, eng := range slabEngines(l, g, par) {
			t.Run(fmt.Sprintf("%s/par%d", name, par), func(t *testing.T) {
				want := make([][]Result, len(qs))
				for i, q := range qs {
					want[i] = oracleRanking(eng, q, nil)
				}
				slab := new(sigmaSlab)
				for round := 0; round < 2; round++ {
					for i, q := range qs {
						k := []int{-1, 5}[(round+i)%2]
						got, _ := eng.searchCandidates(context.Background(), q, nil, k, slab)
						if err := agreeWithOracle(eng.Agg, got, want[i], k); err != nil {
							t.Fatalf("round %d query %d (k=%d): %v", round, i, k, err)
						}
					}
				}
			})
		}
	}
	// Two sequences at once on one engine, through the pooled slabs: two
	// live searches must never share a slab.
	t.Run("concurrent", func(t *testing.T) {
		for name, eng := range slabEngines(l, g, 4) {
			want := make([][]Result, len(qs))
			for i, q := range qs {
				want[i] = oracleRanking(eng, q, nil)
			}
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for n := 0; n < 3*len(qs); n++ {
						i := (n + w*3) % len(qs)
						got, _ := eng.Search(qs[i], -1)
						if err := agreeWithOracle(eng.Agg, got, want[i], -1); err != nil {
							t.Errorf("%s: sequence %d query %d: %v", name, w, i, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		}
	})
}

// TestSigmaSlabGenerationWrap runs three searches across the slab's
// generation wrap, starting at MaxUint32 − 1, each over its own third of the
// lake so that each reads rows the one before it did not: on a fresh slab,
// where a search at generation 0 would take never-written stamps for its
// own, and on one whose rows still carry stamps 1 and 2 from searches of
// other queries, which the searches after the wrap would take for their own
// without the clear. Either way they would read cells that are not σ. The σ
// is type σ behind another type, so rows are corpus entities and each third
// of the lake reaches rows of its own; TypeJaccard itself keys rows by type
// set, which every third shares.
func TestSigmaSlabGenerationWrap(t *testing.T) {
	l, g := randomCorpus(7, 24, 120, 40, 12, 4)
	tj := NewTypeJaccard(g)
	eng := &Engine{Lake: l, Sim: struct{ Similarity }{tj}, Inf: IDFInformativeness(l), Parallelism: 2}
	var thirds [3][]lake.TableID
	for _, tid := range l.LiveTableIDs() {
		thirds[tid%3] = append(thirds[tid%3], tid)
	}
	all := slabQueries()
	qs := []Query{all[1], all[0], all[5]}
	for _, stale := range []bool{false, true} {
		slab := new(sigmaSlab)
		if stale {
			// Stamps 1 and 2 on the thirds searched at generations 1 and 2
			// below, in the slot layouts of other queries.
			eng.searchCandidates(context.Background(), qs[2], thirds[1], -1, slab)
			eng.searchCandidates(context.Background(), qs[0], thirds[2], -1, slab)
		}
		slab.gen = math.MaxUint32 - 1
		for i, q := range qs {
			want := oracleRanking(eng, q, thirds[i])
			got, _ := eng.searchCandidates(context.Background(), q, thirds[i], -1, slab)
			if err := agreeWithOracle(eng.Agg, got, want, -1); err != nil {
				t.Fatalf("stale=%v search %d across the wrap: %v", stale, i, err)
			}
			if i == 0 {
				continue // before the wrap
			}
			for e, s := range slab.stamps {
				// The search that wrapped leaves only its own stamps; no
				// later one finds a stamp above its generation.
				if s > slab.gen || (i == 1 && s != 0 && s != slab.gen) {
					t.Fatalf("stale=%v search %d at generation %d: entity %d keeps stamp %d",
						stale, i, slab.gen, e, s)
				}
			}
		}
	}
}

// TestWarmSearchReusesSigmaSlab checks that a warm search draws its dense σ
// storage from the pool instead of allocating it: the median search
// allocates under a quarter of one slab. (The median, not the mean: under
// the race detector sync.Pool drops a quarter of what it is given on
// purpose, so a quarter of those searches allocate a slab anyway.) The σ is
// type σ behind another type, so the slab has a row per corpus entity:
// TypeJaccard's own, keyed by type set, is too small to tell apart.
func TestWarmSearchReusesSigmaSlab(t *testing.T) {
	l, g := randomCorpus(5, 24, 4000, 30, 6, 3)
	eng := &Engine{Lake: l, Sim: struct{ Similarity }{NewTypeJaccard(g)}, Inf: IDFInformativeness(l), Parallelism: 1}
	q := Query{{1, 2, 3}, {4, 5}}
	slabBytes := uint64(len(q.DistinctEntities()) * g.NumEntities() * 8)
	if slabBytes < 64<<10 {
		t.Fatalf("slab is %d bytes, want at least 64 KiB", slabBytes)
	}
	for i := 0; i < 10; i++ {
		eng.Search(q, 10)
	}
	const searches = 50
	var before, after runtime.MemStats
	allocs := make([]uint64, searches)
	for i := range allocs {
		runtime.ReadMemStats(&before)
		eng.Search(q, 10)
		runtime.ReadMemStats(&after)
		allocs[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(allocs)
	t.Logf("warm search allocations: min %d, median %d, max %d bytes", allocs[0], allocs[searches/2], allocs[searches-1])
	if median := allocs[searches/2]; median >= slabBytes/4 {
		t.Errorf("a warm search allocates %d bytes (median of %d), want under %d: a quarter of the %d-byte σ slab",
			median, searches, slabBytes/4, slabBytes)
	}
}

// BenchmarkSearchWarm times a warm type-σ search behind the LSEI prefilter —
// probe, vote, σ, mapping, rank — for one- and five-entity queries over a
// generated lake in the paper's (30,10) configuration. Its allocations are
// what a search costs once the σ slab and vote workspace are pooled.
func BenchmarkSearchWarm(b *testing.B) {
	l, g := randomCorpus(41, 24, 8000, 4000, 6, 3)
	tj := NewTypeJaccard(g)
	x := BuildTypeLSEI(l, tj, DefaultLSEIConfig())
	eng := NewEngine(l, tj)
	queries := []struct {
		name string
		q    Query
	}{
		{"1entity", Query{{1}}},
		{"5entity", Query{{1, 2, 3}, {4, 5}}},
	}
	for _, qc := range queries {
		b.Run(qc.name, func(b *testing.B) {
			want, _ := SearchWithIndex(context.Background(), eng, x, 1, qc.q, 10, FallbackFullScan)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got, _ := SearchWithIndex(context.Background(), eng, x, 1, qc.q, 10, FallbackFullScan); len(got) != len(want) {
					b.Fatalf("run %d: %d results, warm-up %d", i, len(got), len(want))
				}
			}
		})
	}
}
