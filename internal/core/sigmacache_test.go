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
	"thetis/internal/oracle"
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
// Search and ScoreTable, which read every σ through the query-scoped cache,
// rank like the oracle, which memoizes nothing, under the comparison rule,
// across every aggregation and worker count. The pairwise and greedy cells
// hold those readings of the oracle to the engine's ranking at the same
// worker count (checkReading).
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
			for _, mode := range []string{"entitywise", "pairwise"} {
				for _, mapping := range []string{"hungarian", "greedy"} {
					for _, par := range []int{1, 4, 16} {
						name := fmt.Sprintf("%s/%v/%s/%s/par%d", simName, agg, mode, mapping, par)
						t.Run(name, func(t *testing.T) {
							eng := &Engine{Lake: l, Sim: sim, Inf: IDFInformativeness(l), Agg: agg, Parallelism: par}
							c := oracleOf(sim, eng.Inf, agg)
							for qi, q := range queries {
								got, stats := eng.Search(q, -1)
								if !paperCell(mode, mapping) {
									if err := checkReading(eng, q, ablation(sim, eng.Inf, agg, mode, mapping), got); err != nil {
										t.Fatalf("q%d: %v", qi, err)
									}
									continue
								}
								if err := matchesOracle(eng, q, nil, got, -1); err != nil {
									t.Fatalf("q%d: %v", qi, err)
								}
								if stats.SigmaHits+stats.SigmaMisses == 0 && stats.Scored > 0 {
									t.Errorf("q%d: the engine reported no σ lookups", qi)
								}
								for tid := lake.TableID(0); tid < 5; tid++ {
									score, _ := eng.ScoreTable(q, tid)
									sc := newScorer(q, eng.Inf, agg, NewSigmaCache(q, sim, g.NumEntities()))
									sc.scoreBare(l.Table(tid), nil)
									if want := oracleScore(c, q, l.Table(tid), sc.assignment); !oracle.Agree(agg == AggregateAvg, score, want) {
										t.Fatalf("q%d table %d: ScoreTable %v, oracle %v", qi, tid, score, want)
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
				c.fillRow(uint32(target), uint32(target), out)
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

// TestTypeSigmaKeyMatchesScore pins the keyed type-σ path to
// TypeJaccard.Score bit for bit: for every (query entity, target) pair of a
// fixture graph, the scorer's one-cell read (sigma) and SigmaCache.Sigma
// return Score, and its row read (keyRow, over target's key) Score too
// except against the query entity itself, where the row holds the key's
// value and not the identity, whether rows are filled
// whole or cell by cell first. The graph has untyped entities, an entity
// interned after NewTypeJaccard, two distinct entities with equal type sets
// (0.95) and every entity against itself (1, which no keyed cell holds).
// Each read runs on a fresh slab and on one reused at a stale generation,
// whose rows hold another query's σ in another slot layout.
func TestTypeSigmaKeyMatchesScore(t *testing.T) {
	g := kg.NewGraph()
	thing := g.AddType("Thing", "")
	person := g.AddType("Person", "")
	place := g.AddType("Place", "")
	city := g.AddType("City", "")
	g.AddSubtype(person, thing)
	g.AddSubtype(place, thing)
	g.AddSubtype(city, place)
	for i, types := range [][]kg.TypeID{{person}, {person}, {place}, {city}, {}, {person, city}, {}, {thing}} {
		e := g.AddEntity(fmt.Sprintf("ent/%d", i), "")
		for _, ty := range types {
			g.AssignType(e, ty)
		}
	}
	tj := NewTypeJaccard(g)
	late := g.AddEntity("ent/late", "")
	g.AssignType(late, person)
	n := g.NumEntities()
	q := Query{Tuple{0, 1, 2}, Tuple{3, 4, late}, Tuple{5, 7}}
	// Wider than q, so q's cache reuses its cells rather than growing them.
	other := Query{Tuple{late, 7, 6, 5}, Tuple{4, 3, 2, 1, 0}}

	var untyped, lateSeen, equalSets, identity int
	for _, stale := range []bool{false, true} {
		for _, rowsFirst := range []bool{true, false} {
			slab := new(sigmaSlab)
			var before []uint64
			if stale {
				prev := newSigmaCache(other, tj, n, slab)
				sc := newScorer(other, UniformInformativeness, AggregateMax, prev)
				for target := 0; target < n; target++ {
					key, _ := prev.rowKey(uint32(target))
					sc.keyRow(key)
				}
				before = slices.Clone(slab.cells)
			}
			c := newSigmaCache(q, tj, n, slab)
			if c.keyed == nil || c.n != tj.NumTypeSets()+1 {
				t.Fatalf("type σ cache spans %d rows (keyed %v), want %d type sets + 1", c.n, c.keyed != nil, tj.NumTypeSets())
			}
			if st := c.Stats(); st.MemoryBytes != int64(st.Slots*c.n*8) {
				t.Fatalf("memory %d bytes, want slots × keys × 8 = %d", st.MemoryBytes, st.Slots*c.n*8)
			}
			sc := newScorer(q, UniformInformativeness, AggregateMax, c)
			for pass := 0; pass < 2; pass++ {
				for target := kg.EntityID(0); int(target) < n; target++ {
					var row []float64
					if rowsFirst == (pass == 0) {
						key, _ := c.rowKey(uint32(target))
						row = slices.Clone(sc.keyRow(key))
					}
					for di, a := range sc.distinct {
						want := tj.Score(a, target)
						got := sc.sigma(di, uint32(target))
						// A key row holds no identity: the σ pass corrects a
						// query entity's own cells from its key's value.
						rowWant := want
						if a == target {
							rowWant = tj.scoreKey(a, tj.key(a))
						}
						if row != nil && math.Float64bits(row[di]) != math.Float64bits(rowWant) {
							t.Fatalf("stale=%v: keyRow σ(%d,%d) = %v, want %v", stale, a, target, row[di], rowWant)
						}
						if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(c.Sigma(di, target)) != math.Float64bits(want) {
							t.Fatalf("stale=%v: sigma σ(%d,%d) = %v, Sigma %v, Score %v", stale, a, target, got, c.Sigma(di, target), want)
						}
						switch {
						case a == target:
							identity++
						case tj.SetID(target) < 0 && target != late:
							untyped++
						case target == late:
							lateSeen++
						case want == MaxJaccard:
							equalSets++
						}
					}
				}
			}
			if stale {
				// The reused rows held σ that is wrong for this query's slots.
				wrong := 0
				for i, bits := range before[:len(c.dense)] {
					if bits != sigmaUnset && bits != c.dense[i] {
						wrong++
					}
				}
				if wrong == 0 {
					t.Fatal("vacuous: the stale slab held no cell that differs from this query's σ")
				}
			}
		}
	}
	if untyped == 0 || lateSeen == 0 || equalSets == 0 || identity == 0 {
		t.Fatalf("vacuous: %d untyped, %d late, %d equal-set, %d identity reads", untyped, lateSeen, equalSets, identity)
	}
}

// BenchmarkSigmaRow times filling one missing dense-cache row: at dim 48,
// "score" is the per-cell Score call any σ without a row kernel takes (the
// cosine hidden behind another type), "row" the EmbeddingCosine kernel; over
// type σ, "types/keyed" fills a row keyed by type set through scoreKey, and
// "types/entity" a row keyed by corpus entity through Score (TypeJaccard
// behind another type). Each runs for d = 1, 5, 7 and 15 distinct query
// entities (1 and 5 leave one live slot in their last group of four), and
// all of them store what they compute.
func BenchmarkSigmaRow(b *testing.B) {
	_, g := randomCorpus(47, 8, 2000, 0, 0, 0)
	n := g.NumEntities()
	ec := NewEmbeddingCosine(g, randomEmbeddings(rand.New(rand.NewSource(53)), g, 48))
	tj := NewTypeJaccard(g)
	for _, d := range []int{1, 5, 7, 15} {
		q := Query{make(Tuple, d)}
		for i := range q[0] {
			q[0][i] = kg.EntityID(i * 97)
		}
		for _, kernel := range []struct {
			name string
			sim  Similarity
		}{{"score", struct{ Similarity }{ec}}, {"row", ec}, {"types/keyed", tj}, {"types/entity", struct{ Similarity }{tj}}} {
			b.Run(fmt.Sprintf("d=%d/%s", d, kernel.name), func(b *testing.B) {
				c := NewSigmaCache(q, kernel.sim, n)
				out := make([]float64, d)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for di := range out {
						out[di] = math.Float64frombits(sigmaUnset)
					}
					target := uint32(i % n)
					key, _ := c.rowKey(target)
					c.fillRow(key, target, out)
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
// the raw Similarity. The σ is type σ behind another type, so rows are
// corpus entities, one cell per (slot, entity); TestTypeSigmaKeyMatchesScore
// covers the keyed layout.
func TestSigmaCacheDenseMode(t *testing.T) {
	_, g := randomCorpus(5, 8, 40, 1, 1, 1)
	tj := NewTypeJaccard(g)
	q := Query{Tuple{0, 1}, Tuple{1, 2}} // entity 1 repeats across tuples
	c := NewSigmaCache(q, struct{ Similarity }{tj}, g.NumEntities())
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
	sc := newScorer(q, UniformInformativeness, AggregateMax, c)
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
	newScorer(Query{Tuple{3, 7}}, UniformInformativeness, AggregateMax, c)
}

// TestSigmaCacheShardedMode forces the map-backed representation by
// claiming a corpus ID space too large for dense slabs, and checks the
// same contract holds. The σ is type σ behind another type: TypeJaccard
// itself sizes its cache by type sets, not by the ID space claimed here.
func TestSigmaCacheShardedMode(t *testing.T) {
	_, g := randomCorpus(5, 8, 40, 1, 1, 1)
	tj := NewTypeJaccard(g)
	q := Query{Tuple{0, 1}}
	// Two slots over an ID space this large puts the dense footprint well
	// past maxSigmaDenseBytes, forcing sharded mode.
	c := NewSigmaCache(q, struct{ Similarity }{tj}, maxSigmaDenseBytes/8+1)
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
		"sharded": NewSigmaCache(q, struct{ Similarity }{tj}, 2*(maxSigmaDenseBytes/8)),
		// A dense cache over an empty key space: no cell to store, every
		// lookup a miss computed from σ.
		"empty-key-space": NewSigmaCache(q, struct{ Similarity }{tj}, 0),
	} {
		t.Run(name, func(t *testing.T) {
			if c.Dense() != (name != "sharded") {
				t.Fatalf("Dense() = %v: the representation follows the dense footprint, 64 MiB at most", c.Dense())
			}
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
			if name == "empty-key-space" && (st.Hits != 0 || st.Entries != 0 || st.MemoryBytes != 0) {
				t.Fatalf("an empty key space stored something: %+v", st)
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
