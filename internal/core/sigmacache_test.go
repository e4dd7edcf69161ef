package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"thetis/internal/embedding"
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/table"
)

// randomCorpus builds a seeded random semantic data lake: a DAG taxonomy,
// entities with 0–3 direct types, and tables whose cells are linked to a
// skewed entity population (so columns repeat entities, like real lakes).
func randomCorpus(seed int64, numTypes, numEntities, numTables, rows, cols int) (*lake.Lake, *kg.Graph) {
	rng := rand.New(rand.NewSource(seed))
	g := kg.NewGraph()
	types := make([]kg.TypeID, numTypes)
	for i := range types {
		types[i] = g.AddType(fmt.Sprintf("type/%d", i), "")
		// Parent edges point at earlier types: an acyclic taxonomy.
		if i > 0 && rng.Intn(3) == 0 {
			g.AddSubtype(types[i], types[rng.Intn(i)])
		}
	}
	ents := make([]kg.EntityID, numEntities)
	for i := range ents {
		ents[i] = g.AddEntity(fmt.Sprintf("ent/%d", i), fmt.Sprintf("E%d", i))
		for n := rng.Intn(4); n > 0; n-- {
			g.AssignType(ents[i], types[rng.Intn(numTypes)])
		}
	}
	l := lake.New(g)
	for t := 0; t < numTables; t++ {
		tb := table.New(fmt.Sprintf("t%d", t), make([]string, cols))
		for r := 0; r < rows; r++ {
			cells := make([]table.Cell, cols)
			for c := range cells {
				if rng.Intn(10) < 7 {
					// Zipf-ish skew: favor low entity IDs.
					e := ents[rng.Intn(1+rng.Intn(numEntities))]
					cells[c] = table.LinkedCell("v", e)
				} else {
					cells[c] = table.Cell{Value: "v"}
				}
			}
			tb.AppendRow(cells)
		}
		l.Add(tb)
	}
	return l, g
}

// randomQuery draws tuples from the corpus entity space with deliberate
// repetition across tuples, the case the query-scoped cache and the
// mapping-row reuse exist for.
func randomQuery(rng *rand.Rand, g *kg.Graph, tuples, width int) Query {
	q := make(Query, tuples)
	shared := kg.EntityID(rng.Intn(g.NumEntities()))
	for i := range q {
		tu := make(Tuple, width)
		for k := range tu {
			if k == 0 {
				tu[k] = shared // every tuple repeats one entity
			} else {
				tu[k] = kg.EntityID(rng.Intn(g.NumEntities()))
			}
		}
		q[i] = tu
	}
	return q
}

// randomEmbeddings gives ~80% of entities a random vector, leaving the
// rest unembedded (σ = 0 against everything).
func randomEmbeddings(rng *rand.Rand, g *kg.Graph, dim int) *embedding.Store {
	st := embedding.NewStore(g.NumEntities(), dim)
	v := make(embedding.Vector, dim)
	for e := 0; e < g.NumEntities(); e++ {
		if rng.Intn(5) == 0 {
			continue
		}
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		st.Set(kg.EntityID(e), v)
	}
	return st
}

// TestSigmaCacheDifferentialBattery proves the σ cache's correctness claim:
// with the query-scoped cache enabled, Search and ScoreTable return
// bit-identical scores and identical rankings to an engine that memoizes
// nothing (DisableSigmaCache: every σ read calls Similarity.Score), across
// every aggregation, score mode, mapping method, and worker count.
func TestSigmaCacheDifferentialBattery(t *testing.T) {
	l, g := randomCorpus(7, 24, 120, 40, 12, 4)
	rng := rand.New(rand.NewSource(11))
	queries := []Query{
		randomQuery(rng, g, 1, 2),
		randomQuery(rng, g, 3, 3),
		randomQuery(rng, g, 5, 2),
	}
	sims := map[string]Similarity{
		"types":      NewTypeJaccard(g),
		"embeddings": NewEmbeddingCosine(g, randomEmbeddings(rand.New(rand.NewSource(2)), g, 16)),
	}
	for simName, sim := range sims {
		for _, agg := range []Aggregation{AggregateMax, AggregateAvg} {
			for _, mode := range []ScoreMode{ModeEntityWise, ModePairwise} {
				for _, mapping := range []MappingMethod{MappingHungarian, MappingGreedy} {
					for _, par := range []int{1, 4, 16} {
						name := fmt.Sprintf("%s/%v/%v/%v/par%d", simName, agg, mode, mapping, par)
						t.Run(name, func(t *testing.T) {
							cached := &Engine{Lake: l, Sim: sim, Inf: IDFInformativeness(l),
								Agg: agg, Mode: mode, Mapping: mapping, Parallelism: par}
							uncached := &Engine{Lake: l, Sim: sim, Inf: IDFInformativeness(l),
								Agg: agg, Mode: mode, Mapping: mapping, Parallelism: par,
								DisableSigmaCache: true}
							for qi, q := range queries {
								rc, sc := cached.Search(q, -1)
								ru, su := uncached.Search(q, -1)
								if len(rc) != len(ru) {
									t.Fatalf("q%d: cached %d results, uncached %d", qi, len(rc), len(ru))
								}
								for i := range rc {
									if rc[i].Table != ru[i].Table || rc[i].Score != ru[i].Score {
										t.Fatalf("q%d result %d: cached %v, uncached %v (must be bit-identical)",
											qi, i, rc[i], ru[i])
									}
								}
								if su.SigmaHits != 0 || su.SigmaMisses != 0 {
									t.Errorf("q%d: uncached engine reported cache traffic %d/%d",
										qi, su.SigmaHits, su.SigmaMisses)
								}
								if sc.SigmaHits+sc.SigmaMisses == 0 && sc.Scored > 0 {
									t.Errorf("q%d: cached engine reported no σ lookups", qi)
								}
								for tid := 0; tid < 5; tid++ {
									vc, _ := cached.ScoreTable(q, lake.TableID(tid))
									vu, _ := uncached.ScoreTable(q, lake.TableID(tid))
									if vc != vu {
										t.Fatalf("q%d table %d: ScoreTable cached %v != uncached %v", qi, tid, vc, vu)
									}
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestCosineRowMatchesScore pins the dense cache's row kernel to
// EmbeddingCosine.Score bit for bit (math.Float64bits, so a sum taken in
// another order fails even where it rounds to a value within 1 ulp), for
// every (query entity, target) pair over dims that do and do not fill a
// lane group and over 1…15 distinct query entities, every remainder mod 4.
// The store gives entities no vector, zero vectors, duplicated and opposed
// vectors, and leaves the last IDs beyond its arena, so the identity,
// missing-vector and both clamp rules of Score all fire.
func TestCosineRowMatchesScore(t *testing.T) {
	const n, storeN = 60, 56
	g := kg.NewGraph()
	for e := 0; e < n; e++ {
		g.AddEntity(fmt.Sprintf("ent/%d", e), "")
	}
	var identityNoVector, above1, atMost0 int
	for _, dim := range []int{1, 3, 4, 5, 48, 63} {
		rng := rand.New(rand.NewSource(int64(dim)))
		store := embedding.NewStore(storeN, dim)
		last := make(embedding.Vector, dim)
		for e := 0; e < storeN; e++ {
			v := make(embedding.Vector, dim)
			switch e % 7 {
			case 0: // no vector
				continue
			case 1: // zero vector
			case 2: // duplicate
				copy(v, last)
			case 3: // opposed
				for i := range v {
					v[i] = -last[i]
				}
			default:
				for i := range v {
					v[i] = float32(rng.NormFloat64())
				}
				copy(last, v)
			}
			store.Set(kg.EntityID(e), v)
		}
		ec := NewEmbeddingCosine(g, store)
		for d := 1; d <= 15; d++ {
			perm := rng.Perm(n)
			q := Query{make(Tuple, d)}
			for i := range q[0] {
				q[0][i] = kg.EntityID(perm[i])
			}
			c := NewSigmaCache(q, ec, n)
			if c.cosine.ec == nil {
				t.Fatal("a dense cache over an EmbeddingCosine has no row kernel")
			}
			out := make([]float64, d)
			for target := kg.EntityID(0); target < n; target++ {
				for di := range out {
					out[di] = math.Float64frombits(sigmaUnset)
				}
				c.fillRow(uint32(target), out)
				for di, qe := range c.entities {
					want := ec.Score(qe, target)
					if math.Float64bits(out[di]) != math.Float64bits(want) {
						t.Fatalf("dim %d, d %d: row σ(%d,%d) = %v, Score %v", dim, d, qe, target, out[di], want)
					}
					if v, ok := c.lookup(di, uint32(target)); !ok || math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("dim %d, d %d: σ(%d,%d) stored as %v (%v), want %v", dim, d, qe, target, v, ok, want)
					}
					va, vb := ec.Vector(qe), ec.Vector(target)
					switch {
					case qe == target:
						if va == nil {
							identityNoVector++
						}
					case va != nil && vb != nil:
						if cos := embedding.Dot(va, vb); cos > 1 {
							above1++
						} else if cos <= 0 {
							atMost0++
						}
					}
				}
			}
		}
	}
	if identityNoVector == 0 || above1 == 0 || atMost0 == 0 {
		t.Fatalf("vacuous: %d identities without a vector, %d cosines above 1, %d at most 0", identityNoVector, above1, atMost0)
	}
}

// BenchmarkSigmaRow times filling one missing dense-cache row at dim 48:
// "score" is the per-cell Score call any σ without a row kernel takes (the
// cosine hidden behind another type), "row" the EmbeddingCosine kernel, for
// d = 1, 5, 7 and 15 distinct query entities (1 and 5 leave one live slot in
// their last group of four). Both store what they compute.
func BenchmarkSigmaRow(b *testing.B) {
	_, g := randomCorpus(47, 8, 2000, 0, 0, 0)
	n := g.NumEntities()
	ec := NewEmbeddingCosine(g, randomEmbeddings(rand.New(rand.NewSource(53)), g, 48))
	for _, d := range []int{1, 5, 7, 15} {
		q := Query{make(Tuple, d)}
		for i := range q[0] {
			q[0][i] = kg.EntityID(i * 97)
		}
		for _, kernel := range []struct {
			name string
			sim  Similarity
		}{{"score", struct{ Similarity }{ec}}, {"row", ec}} {
			b.Run(fmt.Sprintf("d=%d/%s", d, kernel.name), func(b *testing.B) {
				c := NewSigmaCache(q, kernel.sim, n)
				out := make([]float64, d)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for di := range out {
						out[di] = math.Float64frombits(sigmaUnset)
					}
					c.fillRow(uint32(i%n), out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*d), "ns/cell")
			})
		}
	}
}

// TestSigmaCacheParallelismInvariant re-checks determinism across worker
// counts with the cache on: the shared cache must not let scoring order
// leak into scores.
func TestSigmaCacheParallelismInvariant(t *testing.T) {
	l, g := randomCorpus(19, 16, 80, 30, 10, 3)
	rng := rand.New(rand.NewSource(3))
	q := randomQuery(rng, g, 4, 3)
	ref, _ := (&Engine{Lake: l, Sim: NewTypeJaccard(g), Inf: IDFInformativeness(l), Parallelism: 1}).Search(q, -1)
	for _, par := range []int{2, 4, 16} {
		got, _ := (&Engine{Lake: l, Sim: NewTypeJaccard(g), Inf: IDFInformativeness(l), Parallelism: par}).Search(q, -1)
		if len(got) != len(ref) {
			t.Fatalf("par %d: %d results, want %d", par, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("par %d result %d: %v != %v", par, i, got[i], ref[i])
			}
		}
	}
}

// TestSigmaCacheDenseMode exercises the dense slab representation
// directly: hit/miss accounting, entry counting, and value agreement with
// the raw Similarity.
func TestSigmaCacheDenseMode(t *testing.T) {
	_, g := randomCorpus(5, 8, 40, 1, 1, 1)
	tj := NewTypeJaccard(g)
	q := Query{Tuple{0, 1}, Tuple{1, 2}} // entity 1 repeats across tuples
	c := NewSigmaCache(q, tj, g.NumEntities())
	if !c.Dense() {
		t.Fatal("small corpus should use the dense representation")
	}
	if c.NumSlots() != 3 {
		t.Fatalf("NumSlots = %d, want 3 distinct entities", c.NumSlots())
	}
	for e := kg.EntityID(0); int(e) < g.NumEntities(); e++ {
		if got, want := c.Sigma(0, e), tj.Score(0, e); got != want {
			t.Fatalf("Sigma(0,%d) = %v, want %v", e, got, want)
		}
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != int64(g.NumEntities()) {
		t.Fatalf("first pass: hits %d misses %d, want 0/%d", st.Hits, st.Misses, g.NumEntities())
	}
	for e := kg.EntityID(0); int(e) < g.NumEntities(); e++ {
		c.Sigma(0, e)
	}
	st = c.Stats()
	if st.Hits != int64(g.NumEntities()) {
		t.Fatalf("second pass hits = %d, want %d", st.Hits, g.NumEntities())
	}
	if st.Entries != int64(g.NumEntities()) {
		t.Fatalf("entries = %d, want %d (one slot filled)", st.Entries, g.NumEntities())
	}
	if !st.Dense || st.Slots != 3 || st.MemoryBytes != int64(3*g.NumEntities()*8) {
		t.Fatalf("stats shape wrong: %+v", st)
	}
	if hr := st.HitRate(); hr != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", hr)
	}
}

// TestScorerSlotsAreCacheSlots pins the one slot space: for a query that
// repeats entities within and across tuples, index di of the scorer's
// distinct entities is slot di of the cache built from the same query (both
// first-occurrence order), every tuple position resolves to the slot of its
// entity, and a cache built from another query is refused.
func TestScorerSlotsAreCacheSlots(t *testing.T) {
	_, g := randomCorpus(5, 8, 40, 1, 1, 1)
	tj := NewTypeJaccard(g)
	q := Query{Tuple{7, 3, 7}, Tuple{3, 9}, Tuple{9, 7, 1}}
	c := NewSigmaCache(q, tj, g.NumEntities())
	sc := newScorer(q, tj, UniformInformativeness, AggregateMax, ModeEntityWise, MappingHungarian, c)
	if want := []kg.EntityID{7, 3, 9, 1}; !slices.Equal(sc.distinct, want) || !slices.Equal(c.entities, want) {
		t.Fatalf("scorer slots %v, cache slots %v, want %v", sc.distinct, c.entities, want)
	}
	for ti, tq := range q {
		for k, e := range tq {
			if di := sc.slots[ti][k]; sc.distinct[di] != e {
				t.Fatalf("tuple %d position %d (entity %d) resolves to slot %d = entity %d", ti, k, e, di, sc.distinct[di])
			}
		}
	}
	for di, e := range sc.distinct {
		for target := kg.EntityID(0); int(target) < g.NumEntities(); target++ {
			if got, want := sc.sigma(di, uint32(target)), tj.Score(e, target); got != want || c.Sigma(di, target) != want {
				t.Fatalf("slot %d: scorer reads σ(%d,%d) = %v, cache %v, want %v", di, e, target, got, c.Sigma(di, target), want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("newScorer accepted a σ cache built for another query")
		}
	}()
	newScorer(Query{Tuple{3, 7}}, tj, UniformInformativeness, AggregateMax, ModeEntityWise, MappingHungarian, c)
}

// TestSigmaCacheShardedMode forces the map-backed representation by
// claiming a corpus ID space too large for dense slabs, and checks the
// same contract holds.
func TestSigmaCacheShardedMode(t *testing.T) {
	_, g := randomCorpus(5, 8, 40, 1, 1, 1)
	tj := NewTypeJaccard(g)
	q := Query{Tuple{0, 1}}
	// Two slots over an ID space this large puts the dense footprint well
	// past maxSigmaDenseBytes, forcing sharded mode.
	c := NewSigmaCache(q, tj, maxSigmaDenseBytes/8+1)
	if c.Dense() {
		t.Fatal("oversized ID space should select the sharded representation")
	}
	for e := kg.EntityID(0); int(e) < g.NumEntities(); e++ {
		if got, want := c.Sigma(1, e), tj.Score(1, e); got != want {
			t.Fatalf("Sigma(1,%d) = %v, want %v", e, got, want)
		}
	}
	c.Sigma(1, 7)
	st := c.Stats()
	if st.Dense {
		t.Fatal("stats must report sharded mode")
	}
	if st.Entries != int64(g.NumEntities()) {
		t.Fatalf("entries = %d, want %d", st.Entries, g.NumEntities())
	}
	if st.Hits != 1 {
		t.Fatalf("hits = %d, want 1", st.Hits)
	}
	if st.MemoryBytes == 0 {
		t.Fatal("sharded MemoryBytes should track entries")
	}
}

// TestSigmaCacheConcurrentStress hammers one cache from many goroutines
// (the sharing pattern of scoring workers) and verifies every returned
// value matches the deterministic σ. Run under -race via `make check`.
func TestSigmaCacheConcurrentStress(t *testing.T) {
	_, g := randomCorpus(23, 20, 200, 1, 1, 1)
	tj := NewTypeJaccard(g)
	q := Query{Tuple{0, 5, 9}, Tuple{5, 14}}
	for name, c := range map[string]*SigmaCache{
		"dense":   NewSigmaCache(q, tj, g.NumEntities()),
		"sharded": NewSigmaCache(q, tj, 2*(maxSigmaDenseBytes/8)),
	} {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			errs := make(chan string, 16)
			for w := 0; w < 16; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 2000; i++ {
						slot := rng.Intn(c.NumSlots())
						e := kg.EntityID(rng.Intn(g.NumEntities()))
						if got, want := c.Sigma(slot, e), tj.Score(qEntity(q, slot), e); got != want {
							select {
							case errs <- fmt.Sprintf("Sigma(%d,%d) = %v, want %v", slot, e, got, want):
							default:
							}
							return
						}
					}
				}(int64(w))
			}
			wg.Wait()
			close(errs)
			if msg, ok := <-errs; ok {
				t.Fatal(msg)
			}
			st := c.Stats()
			if st.Hits+st.Misses != 16*2000 {
				t.Fatalf("lookups = %d, want %d", st.Hits+st.Misses, 16*2000)
			}
		})
	}
}

// qEntity resolves slot indexes back to query entities (first-occurrence
// order, mirroring Query.DistinctEntities).
func qEntity(q Query, slot int) kg.EntityID {
	return q.DistinctEntities()[slot]
}

// TestSigmaCacheConcurrentSearches runs many concurrent full searches on
// one shared engine with the cache enabled, each verifying against a
// serial reference — the end-to-end race stress of the sharded machinery.
func TestSigmaCacheConcurrentSearches(t *testing.T) {
	l, g := randomCorpus(31, 16, 100, 30, 8, 3)
	eng := NewEngine(l, NewTypeJaccard(g))
	rng := rand.New(rand.NewSource(9))
	queries := make([]Query, 6)
	refs := make([][]Result, len(queries))
	for i := range queries {
		queries[i] = randomQuery(rng, g, 2+i%3, 2)
		refs[i], _ = eng.Search(queries[i], -1)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		for i := range queries {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, _ := eng.Search(queries[i], -1)
				if len(got) != len(refs[i]) {
					t.Errorf("query %d: %d results, want %d", i, len(got), len(refs[i]))
					return
				}
				for j := range got {
					if got[j] != refs[i][j] {
						t.Errorf("query %d result %d: %v != %v", i, j, got[j], refs[i][j])
						return
					}
				}
			}(i)
		}
	}
	wg.Wait()
}
