package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"thetis/internal/embedding"
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/obs"
	"thetis/internal/table"
)

// naiveVote is the LSEI vote of Section 6.2 written out with maps and no
// workspace, the oracle the pooled vote answers to: per probe signature,
// the set of colliding items (QuerySet), the number of distinct colliding
// items per table — an entity counts for every live table mentioning it,
// found by scanning the tables, a column for its owner — thresholded at
// votes; the union over probes, sorted. It also returns the votes cast
// before thresholding.
func naiveVote(x *LSEI, sigs [][]uint32, votes int) (ids []lake.TableID, cast int) {
	if votes < 1 {
		votes = 1
	}
	mentions := map[kg.EntityID][]lake.TableID{}
	for tid, tb := range x.lake.Tables() {
		if tb == nil {
			continue
		}
		for _, e := range tb.Entities() {
			mentions[e] = append(mentions[e], lake.TableID(tid))
		}
	}
	union := map[lake.TableID]bool{}
	for _, sig := range sigs {
		bag := map[lake.TableID]int{}
		for item := range x.index.QuerySet(sig) {
			if x.columnMode {
				if tid := x.colTable[item]; tid >= 0 {
					bag[tid]++
				}
				continue
			}
			for _, tid := range mentions[kg.EntityID(item)] {
				bag[tid]++
			}
		}
		for tid, n := range bag {
			cast += n
			if n >= votes {
				union[tid] = true
			}
		}
	}
	ids = make([]lake.TableID, 0, len(union))
	for tid := range union {
		ids = append(ids, tid)
	}
	slices.Sort(ids)
	return ids, cast
}

// entitySigs are the probe signatures CandidatesTracedContext sends, one
// per distinct query entity with an indexable representation.
func entitySigs(x *LSEI, q Query) (sigs [][]uint32) {
	for _, e := range q.DistinctEntities() {
		if sig := x.entitySignature(e); sig != nil {
			sigs = append(sigs, sig)
		}
	}
	return sigs
}

// aggregatedSigs are the probe signatures CandidatesAggregated sends, one
// per tuple position.
func aggregatedSigs(x *LSEI, q Query) (sigs [][]uint32) {
	for col := 0; ; col++ {
		var ents []kg.EntityID
		for _, t := range q {
			if col < len(t) {
				ents = append(ents, t[col])
			}
		}
		if ents == nil {
			return sigs
		}
		if sig := x.groupSignature(ents); sig != nil {
			sigs = append(sigs, sig)
		}
	}
}

// Vote fixture: a graph of voteEntities typed from a pool of six types, so
// many entities share an expanded type set and collide in every band, and
// an embedding store of voteEntities+voteLate vectors drawn around eight
// centres (a quarter exactly on one). The initial lake draws on entities
// [0, voteInitial); the graph gains voteLate more entities later, which
// only the embedding store knows.
const (
	voteEntities = 200
	voteInitial  = 120
	voteLate     = 60
)

func voteGraph() *kg.Graph {
	rng := rand.New(rand.NewSource(5))
	g := kg.NewGraph()
	types := make([]kg.TypeID, 6)
	for i := range types {
		types[i] = g.AddType(fmt.Sprintf("vt/%d", i), "")
		if i > 1 {
			g.AddSubtype(types[i], types[rng.Intn(2)])
		}
	}
	for i := 0; i < voteEntities; i++ {
		e := g.AddEntity(fmt.Sprintf("ve/%d", i), "")
		for n := rng.Intn(3); n > 0; n-- {
			g.AssignType(e, types[rng.Intn(len(types))])
		}
	}
	return g
}

func voteEmbeddings() *embedding.Store {
	rng := rand.New(rand.NewSource(6))
	const dim = 6
	centres := make([]embedding.Vector, 8)
	for i := range centres {
		centres[i] = make(embedding.Vector, dim)
		for j := range centres[i] {
			centres[i][j] = float32(rng.NormFloat64())
		}
	}
	st := embedding.NewStore(voteEntities+voteLate, dim)
	for e := 0; e < voteEntities+voteLate; e++ {
		if rng.Intn(10) == 0 {
			continue // unembedded
		}
		c := centres[rng.Intn(len(centres))]
		v := append(embedding.Vector(nil), c...)
		if rng.Intn(4) != 0 {
			for j := range v {
				v[j] += float32(0.4 * rng.NormFloat64())
			}
		}
		st.Set(kg.EntityID(e), v)
	}
	return st
}

// voteTable is a random table over entities [lo, hi): 1–6 rows, 1–3
// columns, 70 % of cells linked.
func voteTable(rng *rand.Rand, name string, lo, hi int) *table.Table {
	cols := 1 + rng.Intn(3)
	tb := table.New(name, make([]string, cols))
	for r := 1 + rng.Intn(6); r > 0; r-- {
		cells := make([]table.Cell, cols)
		for c := range cells {
			if rng.Intn(10) < 7 {
				cells[c] = table.LinkedCell("v", kg.EntityID(lo+rng.Intn(hi-lo)))
			} else {
				cells[c] = table.Cell{Value: "v"}
			}
		}
		tb.AppendRow(cells)
	}
	return tb
}

func voteQueries(rng *rand.Rand, hi int) []Query {
	var qs []Query
	for _, shape := range [][2]int{{1, 1}, {1, 3}, {3, 2}, {5, 3}} {
		for n := 0; n < 3; n++ {
			q := make(Query, shape[0])
			for i := range q {
				q[i] = make(Tuple, shape[1])
				for j := range q[i] {
					q[i][j] = kg.EntityID(rng.Intn(hi))
				}
			}
			qs = append(qs, q)
		}
	}
	return qs
}

// TestCandidatesMatchNaiveVote pins the pooled, generation-stamped vote to
// the naive map-based oracle: candidate slices, the probe and vote trace
// stages' Items, and the probes and votes counted on /metrics, over type
// and embedding LSEIs in entity and column mode at votes 1–3, before and
// after a run of AddTable/RemoveTable that brings in entities beyond the
// original ID range (and beyond the graph the index was built over).
func TestCandidatesMatchNaiveVote(t *testing.T) {
	builds := []struct {
		name  string
		build func(*lake.Lake, *kg.Graph, *embedding.Store) *LSEI
	}{
		{"types(32,8)", func(l *lake.Lake, g *kg.Graph, _ *embedding.Store) *LSEI {
			return BuildTypeLSEI(l, NewTypeJaccard(g), LSEIConfig{Vectors: 32, BandSize: 8, Seed: 1})
		}},
		{"types(30,10)/columns", func(l *lake.Lake, g *kg.Graph, _ *embedding.Store) *LSEI {
			return BuildTypeLSEI(l, NewTypeJaccard(g), LSEIConfig{Vectors: 30, BandSize: 10, Seed: 1, ColumnAggregation: true})
		}},
		{"embeddings(16,4)", func(l *lake.Lake, g *kg.Graph, st *embedding.Store) *LSEI {
			return BuildEmbeddingLSEI(l, NewEmbeddingCosine(g, st), st.Dim(), LSEIConfig{Vectors: 16, BandSize: 4, Seed: 1})
		}},
		{"embeddings(16,4)/columns", func(l *lake.Lake, g *kg.Graph, st *embedding.Store) *LSEI {
			return BuildEmbeddingLSEI(l, NewEmbeddingCosine(g, st), st.Dim(), LSEIConfig{Vectors: 16, BandSize: 4, Seed: 1, ColumnAggregation: true})
		}},
	}
	store := voteEmbeddings()
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			g := voteGraph()
			l := lake.New(g)
			for i := 0; i < 40; i++ {
				l.Add(voteTable(rng, fmt.Sprintf("t%d", i), 0, voteInitial))
			}
			x := b.build(l, g, store)
			multiBand := 0
			check := func(step string, hi int) {
				t.Helper()
				for qi, q := range voteQueries(rng, hi) {
					sigs := entitySigs(x, q)
					for _, sig := range sigs {
						seen := map[uint32]bool{}
						for _, it := range x.index.Query(sig) {
							if seen[it] {
								multiBand++
							}
							seen[it] = true
						}
					}
					for votes := 1; votes <= 3; votes++ {
						want, cast := naiveVote(x, sigs, votes)
						tr := obs.NewTrace("prefilter")
						probes0, votes0 := mPrefilterProbes.Value(), mPrefilterVotes.Value()
						got := x.CandidatesTracedContext(context.Background(), q, votes, tr)
						if !slices.Equal(got, want) {
							t.Fatalf("%s q%d votes=%d: candidates %v, oracle %v", step, qi, votes, got, want)
						}
						if p := mPrefilterProbes.Value() - probes0; p != int64(len(sigs)) {
							t.Fatalf("%s q%d votes=%d: %d probes counted, oracle %d", step, qi, votes, p, len(sigs))
						}
						if v := mPrefilterVotes.Value() - votes0; v != int64(cast) {
							t.Fatalf("%s q%d votes=%d: %d votes counted, oracle %d", step, qi, votes, v, cast)
						}
						if sg := tr.Stage("probe"); sg == nil || sg.Items != len(sigs) {
							t.Fatalf("%s q%d votes=%d: probe stage %+v, want %d items", step, qi, votes, sg, len(sigs))
						}
						if sg := tr.Stage("vote"); sg == nil || sg.Items != len(want) {
							t.Fatalf("%s q%d votes=%d: vote stage %+v, want %d items", step, qi, votes, sg, len(want))
						}
						want, _ = naiveVote(x, aggregatedSigs(x, q), votes)
						if got := x.CandidatesAggregated(q, votes); !slices.Equal(got, want) {
							t.Fatalf("%s q%d votes=%d: aggregated candidates %v, oracle %v", step, qi, votes, got, want)
						}
					}
				}
			}

			check("built", voteEntities)
			for i := voteEntities; i < voteEntities+voteLate; i++ {
				g.AddEntity(fmt.Sprintf("ve/%d", i), "")
			}
			add := func(name string) {
				tid := l.Add(voteTable(rng, name, voteInitial-20, voteEntities+voteLate))
				x.AddTable(tid)
			}
			remove := func(tid lake.TableID) {
				tb := l.Table(tid)
				l.Remove(tid)
				x.RemoveTable(tid, tb)
			}
			for i := 0; i < 6; i++ {
				add(fmt.Sprintf("late%d", i))
			}
			check("after adds", voteEntities+voteLate)
			remove(3)
			remove(17)
			remove(41)
			remove(44)
			check("after removes", voteEntities+voteLate)
			add("late6")
			add("late7")
			check("after re-adds", voteEntities+voteLate)
			if multiBand == 0 {
				t.Fatal("no query item collided in two bands: the cross-band dedup is untested")
			}
		})
	}
}

// TestCandidatesWarmAllocs pins what a warm probe allocates: the query's
// distinct entities, each probe signature, the returned IDs and the trace
// stages — nothing per colliding item or table. The same queries over an
// LSEI with ten times the tables (and so many more collisions) allocate
// the same. The workspace is held rather than pooled, so the count does not
// depend on the pool keeping it.
func TestCandidatesWarmAllocs(t *testing.T) {
	g := voteGraph()
	small, large := lake.New(g), lake.New(g)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		tb := voteTable(rng, fmt.Sprintf("t%d", i), 0, voteEntities)
		if i < 40 {
			small.Add(tb)
		}
		large.Add(tb)
	}
	// One (empty) type filter for both, so both probe with the same
	// signatures.
	tj, noFilter := NewTypeJaccard(g), map[kg.TypeID]bool{}
	cfg := LSEIConfig{Vectors: 30, BandSize: 10, Seed: 1}
	xs, xl := BuildTypeLSEIFiltered(small, tj, cfg, noFilter), BuildTypeLSEIFiltered(large, tj, cfg, noFilter)
	var typed []kg.EntityID
	for e := kg.EntityID(0); len(typed) < 6; e++ {
		if xs.entitySignature(e) != nil {
			typed = append(typed, e)
		}
	}
	one := Query{{typed[0]}}
	five := Query{typed[1:4], typed[4:6]}
	measure := func(x *LSEI, q Query, traced bool) (allocs float64, cands int) {
		ws := x.space()
		run := func() {
			var tr *obs.Trace
			if traced {
				tr = obs.NewTrace("prefilter")
			}
			cands = len(x.candidates(context.Background(), q, 1, tr, ws))
		}
		run() // warm: stamp arrays grown
		return testing.AllocsPerRun(100, run), cands
	}
	sigAllocs := func(x *LSEI, q Query) float64 {
		return testing.AllocsPerRun(100, func() {
			for _, e := range q.DistinctEntities() {
				x.entitySignature(e)
			}
		})
	}
	for _, c := range []struct {
		name    string
		q       Query
		ceiling float64 // as measured: 7 and 32 of them are the signatures
	}{
		{"1entity", one, 10},
		{"5entity", five, 35},
	} {
		t.Run(c.name, func(t *testing.T) {
			as, ns := measure(xs, c.q, true)
			al, nl := measure(xl, c.q, true)
			if nl <= ns {
				t.Fatalf("the large lake yields %d candidates against %d: collisions did not grow", nl, ns)
			}
			if as != al {
				t.Errorf("allocations grow with the lake: %v a probe over %d candidates, %v over %d", as, ns, al, nl)
			}
			if al > c.ceiling {
				t.Errorf("a warm traced probe allocates %v, ceiling %v", al, c.ceiling)
			}
			// Untraced, past the query's distinct entities and signatures
			// only the returned IDs remain.
			bare, _ := measure(xl, c.q, false)
			t.Logf("allocs a warm probe: traced %v over %d and %v over %d candidates; untraced %v, signatures %v", as, ns, al, nl, bare, sigAllocs(xl, c.q))
			if extra := bare - sigAllocs(xl, c.q); extra != 1 {
				t.Errorf("beyond its signatures a warm untraced probe allocates %v, want 1 (the IDs)", extra)
			}
		})
	}
}

// TestVoteSpaceGenerationWrap runs three one-entity probes across the
// generation counter's wrap, starting at MaxUint32 − 1: on a fresh
// workspace, where a probe at generation 0 would take never-written stamps
// for its own, and on one whose arrays still carry the stamps of earlier
// probes at generations 1 and 2, which the probes after the wrap would
// take for their own without the clear. Either way votes would be lost.
func TestVoteSpaceGenerationWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := voteGraph()
	l := lake.New(g)
	for i := 0; i < 60; i++ {
		l.Add(voteTable(rng, fmt.Sprintf("t%d", i), 0, voteEntities))
	}
	x := BuildTypeLSEI(l, NewTypeJaccard(g), LSEIConfig{Vectors: 32, BandSize: 8, Seed: 1})
	var qs []Query
	for e := kg.EntityID(0); len(qs) < 3; e++ {
		q := Query{{e}}
		if want, _ := naiveVote(x, entitySigs(x, q), 2); len(want) > 0 {
			qs = append(qs, q)
		}
	}
	for _, stale := range []bool{false, true} {
		ws := new(voteSpace)
		ws.fitTables(l.NumSlots())
		if stale {
			// Stamps 1 and 2, left by the queries probed after the wrap.
			x.candidates(context.Background(), qs[1], 2, nil, ws)
			x.candidates(context.Background(), qs[2], 2, nil, ws)
		}
		ws.gen = math.MaxUint32 - 1
		for i, q := range qs {
			want, _ := naiveVote(x, entitySigs(x, q), 2)
			if got := x.candidates(context.Background(), q, 2, nil, ws); !slices.Equal(got, want) {
				t.Fatalf("stale=%v probe %d across the wrap: candidates %v, oracle %v", stale, i, got, want)
			}
			for w, word := range ws.out {
				if word != 0 {
					t.Fatalf("stale=%v probe %d left candidate bits %#x in word %d", stale, i, word, w)
				}
			}
		}
	}
}

// BenchmarkCandidates times the LSEI prefilter alone — signatures, probe,
// vote, candidate IDs — for one- and five-entity queries over a generated
// type LSEI in the paper's (30,10) configuration.
func BenchmarkCandidates(b *testing.B) {
	l, g := randomCorpus(41, 24, 8000, 4000, 6, 3)
	x := BuildTypeLSEI(l, NewTypeJaccard(g), DefaultLSEIConfig())
	rng := rand.New(rand.NewSource(43))
	typed := func() kg.EntityID {
		for range 1000 {
			if e := kg.EntityID(rng.Intn(g.NumEntities())); x.entitySignature(e) != nil {
				return e
			}
		}
		b.Fatal("no entity keeps a type past the frequent-type filter")
		return 0
	}
	queries := []struct {
		name string
		q    Query
	}{
		{"1entity", Query{{typed()}}},
		{"5entity", Query{{typed(), typed(), typed()}, {typed(), typed()}}},
	}
	for _, qc := range queries {
		b.Run(qc.name, func(b *testing.B) {
			cands := len(x.Candidates(qc.q, 1)) // warm-up: workspace pooled
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := len(x.Candidates(qc.q, 1)); got != cands {
					b.Fatalf("run %d: %d candidates, warm-up %d", i, got, cands)
				}
			}
			b.ReportMetric(float64(cands), "candidates")
		})
	}
}
