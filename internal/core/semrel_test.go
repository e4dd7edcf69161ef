package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"thetis/internal/hungarian"
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/oracle"
	"thetis/internal/table"
)

// raggedTables builds seeded tables over g whose columns are linked at
// different rates — some not at all (empty columns), most with unlinked
// cells in between — and repeat entities down a column.
func raggedTables(rng *rand.Rand, g *kg.Graph, numTables int) []*table.Table {
	tables := make([]*table.Table, numTables)
	for ti := range tables {
		cols, rows := 1+rng.Intn(6), 1+rng.Intn(14)
		linkRate := make([]int, cols)
		for c := range linkRate {
			linkRate[c] = []int{0, 4, 9}[rng.Intn(3)] // of 10 cells
		}
		tb := table.New(fmt.Sprintf("ragged%d", ti), make([]string, cols))
		for r := 0; r < rows; r++ {
			cells := make([]table.Cell, cols)
			for c := range cells {
				cells[c] = table.Cell{Value: "v"}
				if rng.Intn(10) < linkRate[c] {
					e := kg.EntityID(rng.Intn(1 + rng.Intn(g.NumEntities())))
					cells[c] = table.LinkedCell("v", e)
				}
			}
			tb.AppendRow(cells)
		}
		tables[ti] = tb
	}
	return tables
}

// sigma returns σ(distinct[di], target) read through the scorer's cache
// cell by cell, counted as the σ pass counts its reads.
func (s *scorer) sigma(di int, target uint32) float64 {
	key, _ := s.shared.rowKey(target)
	return s.shared.identity(di, target, s.cell(di, key, target))
}

// bareView is what scoreTable reads of tb outside any lake: ci (a
// transient column index when nil) and, under a keyed σ, transient key
// groups, with the identity correction applied wherever a query entity is
// in the table.
func bareView(sc *scorer, tb *table.Table, ci *table.ColumnIndex) tableView {
	if ci == nil {
		ci = table.BuildColumnIndex(tb)
	}
	v := tableView{rows: tb.NumRows(), ci: ci}
	if k := sc.shared.keyed; k != nil {
		v.groups = table.BuildKeyGroups(tb, k.key)
	}
	return v
}

// scoreBare is scoreTable over tb outside any lake (bareView), timed.
func (s *scorer) scoreBare(tb *table.Table, ci *table.ColumnIndex) (float64, time.Duration) {
	return s.scoreTable(bareView(s, tb, ci), true)
}

// TestScoreColumnsMatchesPerCellWalk pins the σ pass to the walk it
// replaced — per (query entity, column), Σ count·σ and max σ over the
// column's entities in ColumnIndex order, one cell at a time — with ==, in
// every way a cell can be read: the dense array, the sharded maps, a dense
// cache over an empty ID space ("disabled": it stores nothing, so every read
// computes σ), a dense cache sized before the table's entities were
// interned, and a dense cache whose rows were partly filled through
// SigmaCache.Sigma before the pass. Hits and misses are counted per cell: a lookup misses exactly
// when its cell was stored neither before the pass nor earlier in it. Type σ
// runs twice: behind another type ("types"), so its rows are corpus entities
// like any σ's, and as itself ("types-keyed"), where a cell is a (slot, type
// set) pair shared by every entity of the set and the pass reads a column
// by key group instead: Σ count·σ over the column's keys in group order,
// one read per (query entity, key), plus the identity correction where a
// query entity sits in the column. A keyed σ sizes its cache by its own key
// space, so the modes that force a representation through the entity ID
// space (sharded, late-entities) do not apply to it.
func TestScoreColumnsMatchesPerCellWalk(t *testing.T) {
	_, g := randomCorpus(13, 20, 150, 0, 0, 0)
	n := g.NumEntities()
	rng := rand.New(rand.NewSource(17))
	tables := raggedTables(rng, g, 30)
	tj := NewTypeJaccard(g)
	sims := map[string]Similarity{
		"types":       struct{ Similarity }{tj},
		"types-keyed": tj,
		"embeddings":  NewEmbeddingCosine(g, randomEmbeddings(rand.New(rand.NewSource(4)), g, 16)),
	}
	queries := []Query{randomQuery(rng, g, 1, 3), randomQuery(rng, g, 5, 3), randomQuery(rng, g, 3, 1)}

	// cacheN is the entity ID space the mode's cache is sized for.
	modes := []struct {
		name   string
		cacheN int
		cache  func(q Query, sim Similarity) *SigmaCache
	}{
		{"dense", n, func(q Query, sim Similarity) *SigmaCache { return NewSigmaCache(q, sim, n) }},
		{"sharded", maxSigmaDenseBytes/8 + 1, func(q Query, sim Similarity) *SigmaCache {
			return NewSigmaCache(q, sim, maxSigmaDenseBytes/8+1)
		}},
		{"disabled", 0, func(q Query, sim Similarity) *SigmaCache { return NewSigmaCache(q, sim, 0) }},
		{"late-entities", n / 3, func(q Query, sim Similarity) *SigmaCache { return NewSigmaCache(q, sim, n/3) }},
		{"dense-prefilled", n, func(q Query, sim Similarity) *SigmaCache {
			c := NewSigmaCache(q, sim, n)
			for e := 0; e < n; e += 3 {
				c.Sigma(e%c.NumSlots(), kg.EntityID(e))
			}
			return c
		}},
	}
	for simName, sim := range sims {
		for _, mode := range modes {
			if _, keyed := sim.(keyedSimilarity); keyed && (mode.name == "sharded" || mode.name == "late-entities") {
				continue
			}
			t.Run(simName+"/"+mode.name, func(t *testing.T) {
				for qi, q := range queries {
					cache := mode.cache(q, sim)
					sc := newScorer(q, UniformInformativeness, AggregateMax, cache)
					if mode.name == "sharded" && cache.Dense() {
						t.Fatal("oversized ID space should select the sharded representation")
					}
					for ti, tb := range tables {
						v := bareView(sc, tb, nil)
						ci := v.ci
						// reads lists, per column, the rows the pass reads and
						// the cells each covers: distinct entities, or under a
						// keyed σ key groups.
						type read struct {
							row   uint32
							count int32
						}
						reads := make([][]read, len(ci.Cols))
						for j := range ci.Cols {
							if g := v.groups; g != nil {
								for i := g.Offsets[j]; i < g.Offsets[j+1]; i++ {
									reads[j] = append(reads[j], read{g.Keys[i], g.Counts[i]})
								}
								continue
							}
							for i, e := range ci.Cols[j].Entities {
								reads[j] = append(reads[j], read{uint32(e), ci.Cols[j].Counts[i]})
							}
						}
						var wantMisses int64
						stored := make(map[[2]int]bool)
						for j := range reads {
							for _, r := range reads[j] {
								for di := range sc.distinct {
									cell := [2]int{di, int(r.row)}
									if _, ok := cache.get(di, r.row); !ok && !stored[cell] {
										wantMisses++
										stored[cell] = cache.keyed != nil || int(r.row) < mode.cacheN
									}
								}
							}
						}
						hitsBefore, missesBefore := sc.hits, sc.misses
						sc.sigmaPass(v)
						misses := sc.misses - missesBefore
						lookups, cells := sc.hits-hitsBefore+misses, 0
						for j := range ci.Cols {
							cs := &ci.Cols[j]
							cells += len(reads[j])
							for di, qe := range sc.distinct {
								for _, e := range cs.Entities {
									if got, v := sc.sigma(di, uint32(e)), sim.Score(qe, e); got != v {
										t.Fatalf("q%d table %d: σ(%d,%d) reads %v after the pass, want %v", qi, ti, qe, e, got, v)
									}
								}
								sum, best := 0.0, 0.0
								for _, r := range reads[j] {
									var v float64
									if cache.keyed != nil {
										v = tj.scoreKey(qe, r.row)
									} else {
										v = sim.Score(qe, kg.EntityID(r.row))
									}
									sum += float64(r.count) * v
									best = max(best, v)
								}
								if cache.keyed != nil {
									// Identity: the query entity's own cells read
									// its key's value, corrected to 1.
									for i, e := range cs.Entities {
										if e == qe {
											sum += float64(cs.Counts[i]) * (1 - tj.scoreKey(qe, tj.key(qe)))
											best = max(best, 1)
										}
									}
								}
								if got := sc.sums[di*sc.cols+j]; got != sum {
									t.Fatalf("q%d table %d entity %d column %d: sum %v, per-row walk %v", qi, ti, di, j, got, sum)
								}
								if got := sc.maxes[di*sc.cols+j]; got != best {
									t.Fatalf("q%d table %d entity %d column %d: max %v, per-row walk %v", qi, ti, di, j, got, best)
								}
							}
						}
						// One lookup per (distinct query entity, row read).
						if want := int64(cells * len(sc.distinct)); lookups != want {
							t.Fatalf("q%d table %d: %d lookups, want %d", qi, ti, lookups, want)
						}
						if misses != wantMisses {
							t.Fatalf("q%d table %d: %d of %d lookups missed, want %d", qi, ti, misses, lookups, wantMisses)
						}
					}
					if !cache.Dense() {
						continue
					}
					// Entities beyond the cache's ID space were scored above
					// (out of bounds would have panicked) and stored nowhere.
					// A keyed cache spans type sets + 1 rows, whatever cacheN.
					st := cache.Stats()
					rows := mode.cacheN
					if cache.keyed != nil {
						rows = tj.NumTypeSets() + 1
					}
					if want := int64(st.Slots * rows); st.MemoryBytes != 8*want || st.Entries > want {
						t.Fatalf("q%d: %d entries in %d bytes, want at most %d cells", qi, st.Entries, st.MemoryBytes, want)
					}
				}
			})
		}
	}
}

// paperCell reports whether a grid cell names the engine's own reading of
// Algorithm 1 (entity-wise, Hungarian); the other cells of the grids below
// hold the oracle's ablation readings to the engine instead (checkReading),
// since the engine has no other reading.
func paperCell(mode, mapping string) bool { return mode == "entitywise" && mapping == "hungarian" }

// ablation is the oracle's reading of a grid cell over the engine's σ,
// weights and aggregation.
func ablation(sim Similarity, inf Informativeness, agg Aggregation, mode, mapping string) oracle.Config {
	r := oracleOf(sim, inf, agg)
	r.Pairwise, r.Greedy = mode == "pairwise", mapping == "greedy"
	return r
}

// TestScoreTableMatchesNaiveSemRel checks scorer.scoreTable, with all its
// pre-aggregation and caching, against the oracle over agg × σ: the
// scorer's µ of every tuple is injective and optimal on the oracle's S
// (within 1e-9: the two sides sum S in different orders), and its score is
// the oracle's under the comparison rule. The pairwise and greedy cells hold
// those readings of the oracle to the engine's ranking of the same tables.
func TestScoreTableMatchesNaiveSemRel(t *testing.T) {
	_, g := randomCorpus(29, 20, 120, 0, 0, 0)
	rng := rand.New(rand.NewSource(31))
	tables := raggedTables(rng, g, 25)
	l := lake.New(g)
	for _, tb := range tables {
		l.Add(tb)
	}
	inf := IDFInformativeness(l)
	sims := map[string]Similarity{
		"types":      NewTypeJaccard(g),
		"embeddings": NewEmbeddingCosine(g, randomEmbeddings(rand.New(rand.NewSource(6)), g, 16)),
	}
	queries := []Query{randomQuery(rng, g, 1, 2), randomQuery(rng, g, 4, 3), randomQuery(rng, g, 2, 5)}
	for simName, sim := range sims {
		for _, agg := range []Aggregation{AggregateMax, AggregateAvg} {
			for _, mode := range []string{"entitywise", "pairwise"} {
				for _, mapping := range []string{"hungarian", "greedy"} {
					t.Run(fmt.Sprintf("%s/%v/%s/%s", simName, agg, mode, mapping), func(t *testing.T) {
						if !paperCell(mode, mapping) {
							eng := &Engine{Lake: l, Sim: sim, Inf: inf, Agg: agg}
							for qi, q := range queries {
								got, _ := eng.Search(q, -1)
								if err := checkReading(eng, q, ablation(sim, inf, agg, mode, mapping), got); err != nil {
									t.Fatalf("q%d: %v", qi, err)
								}
							}
							return
						}
						c := oracleOf(sim, inf, agg)
						matched := 0
						for qi, q := range queries {
							sc := newScorer(q, inf, agg, NewSigmaCache(q, sim, g.NumEntities()))
							for ti, tb := range tables {
								got, _ := sc.scoreBare(tb, nil)
								_, mu := c.Score(tb, oracle.Tuples(q))
								for tqi, tq := range oracle.Tuples(q) {
									S := c.Matrix(tb, tq)
									a := sc.assignment[tqi]
									seen := make(map[int]bool)
									for _, j := range a {
										if j >= tb.NumColumns() || j >= 0 && seen[j] {
											t.Fatalf("q%d table %d tuple %d: assignment %v is not injective into %d columns", qi, ti, tqi, a, tb.NumColumns())
										}
										seen[j] = true
									}
									if total, opt := hungarian.TotalScore(S, a), hungarian.TotalScore(S, mu[tqi]); math.Abs(total-opt) > 1e-9 {
										t.Fatalf("q%d table %d tuple %d: assignment %v totals %v, the oracle's %v totals %v", qi, ti, tqi, a, total, mu[tqi], opt)
									}
								}
								if want := oracleScore(c, q, tb, sc.assignment); !oracle.Agree(agg == AggregateAvg, got, want) {
									t.Fatalf("q%d table %d: scoreTable %v, oracle %v under %v", qi, ti, got, want, sc.assignment)
								}
								if got > 0 {
									matched++
								}
							}
						}
						if matched == 0 {
							t.Fatal("no table scored above 0: the comparison is vacuous")
						}
					})
				}
			}
		}
	}
}

// affineSim is a hand-built σ that leaves [0, 1]: scale·σ + shift of the
// wrapped similarity. The scorer promises nothing about such a σ except
// that the bound still dominates the score.
type affineSim struct {
	inner        Similarity
	scale, shift float64
}

func (a affineSim) Score(x, y kg.EntityID) float64 { return a.scale*a.inner.Score(x, y) + a.shift }

// pairSim is a hand-built σ stated pair by pair; unlisted pairs score 0.
type pairSim map[[2]kg.EntityID]float64

func (p pairSim) Score(x, y kg.EntityID) float64 { return p[[2]kg.EntityID{x, y}] }

// TestUpperBoundDominatesScore is the exactness of top-k pruning at the
// level of one table: over generated tables × σ × agg × 1/3/5-tuple queries
// that repeat entities, upperBound ≥ scoreTable on the raw float64s (the
// search compares them with <, no epsilon), it is the oracle's bound under
// the comparison rule, and it is reached (==) whenever the mapping already
// gives every entity of every tuple its best column. The tables include
// unlinked columns, an all-unlinked table, a one-column table and constant
// columns; the σ's include two that leave [0, 1]. The pairwise and greedy
// cells hold the oracle's readings under the bound: greedy is one more
// entity-wise mapping, and a pairwise row scores its own σ, each at most its
// column's maximum, so no reading scores above the MAX bound (within the
// rule's tolerance where a fold averages).
func TestUpperBoundDominatesScore(t *testing.T) {
	_, g := randomCorpus(53, 20, 120, 0, 0, 0)
	rng := rand.New(rand.NewSource(59))
	tables := raggedTables(rng, g, 40)
	unlinked := table.New("unlinked", make([]string, 3))
	unlinked.AppendRow(make([]table.Cell, 3))
	tables = append(tables, unlinked)
	for _, rows := range []int{1, 3, 6, 7, 10, 13} {
		oneCol := table.New(fmt.Sprintf("onecol%d", rows), make([]string, 1))
		constant := table.New(fmt.Sprintf("constant%d", rows), make([]string, 3))
		a, b := kg.EntityID(rng.Intn(g.NumEntities())), kg.EntityID(rng.Intn(g.NumEntities()))
		for r := 0; r < rows; r++ {
			oneCol.AppendRow([]table.Cell{table.LinkedCell("v", kg.EntityID(rng.Intn(g.NumEntities())))})
			constant.AppendRow([]table.Cell{table.LinkedCell("v", a), {Value: "v"}, table.LinkedCell("v", b)})
		}
		tables = append(tables, oneCol, constant)
	}
	l := lake.New(g)
	for _, tb := range tables {
		l.Add(tb)
	}
	inf := IDFInformativeness(l)
	types := NewTypeJaccard(g)
	cosine := NewEmbeddingCosine(g, randomEmbeddings(rand.New(rand.NewSource(7)), g, 16))
	sims := map[string]Similarity{
		"types":      types,
		"embeddings": cosine,
		"above1":     affineSim{inner: types, scale: 1.3},
		"negative":   affineSim{inner: cosine, scale: 1, shift: -0.3},
	}
	queries := []Query{randomQuery(rng, g, 1, 1), randomQuery(rng, g, 1, 3), randomQuery(rng, g, 3, 2), randomQuery(rng, g, 5, 3)}
	// A tuple that names one entity twice, and a tuple stated twice.
	queries[1][0][2] = queries[1][0][0]
	queries[3][4] = queries[3][1]
	// The clamp, by hand: both query entities average 1.04 in column 0, just
	// above 1, so the optimal mapping sends entity 0 to column 1, where it
	// averages exactly 1 and misses by nothing. A bound that squared its
	// −0.04 miss twice would fall below that score.
	t.Run("clamp", func(t *testing.T) {
		q := Query{Tuple{0, 1}}
		sim := pairSim{{0, 2}: 1.04, {1, 2}: 1.04, {0, 3}: 1, {1, 3}: 0.2}
		tb := table.New("above1", make([]string, 2))
		tb.AppendRow([]table.Cell{table.LinkedCell("v", 2), table.LinkedCell("v", 3)})
		sc := newScorer(q, UniformInformativeness, AggregateAvg, NewSigmaCache(q, sim, 4))
		score, _ := sc.scoreBare(tb, nil)
		if a := sc.assignment[0]; a[0] != 1 || a[1] != 0 || !(score < 1) {
			t.Fatalf("assignment %v scoring %v: the fixture no longer sets the entities against each other", a, score)
		}
		if ub := sc.upperBound(); ub != 1 {
			t.Fatalf("upper bound %v over score %v, want exactly 1: both entities can miss by nothing", ub, score)
		}
	})
	for simName, sim := range sims {
		for _, agg := range []Aggregation{AggregateMax, AggregateAvg} {
			for _, mode := range []string{"entitywise", "pairwise"} {
				for _, mapping := range []string{"hungarian", "greedy"} {
					t.Run(fmt.Sprintf("%s/%v/%s/%s", simName, agg, mode, mapping), func(t *testing.T) {
						c := ablation(sim, inf, agg, mode, mapping)
						boundAgg := agg
						if c.Pairwise {
							boundAgg = AggregateMax
						}
						positive, reached := 0, 0
						for qi, q := range queries {
							sc := newScorer(q, inf, boundAgg, NewSigmaCache(q, sim, g.NumEntities()))
							for ti, tb := range tables {
								score, _ := sc.scoreBare(tb, nil)
								ub := sc.upperBound()
								if !paperCell(mode, mapping) {
									reading, _ := c.Score(tb, oracle.Tuples(q))
									if reading > ub && !oracle.Agree(c.Avg, ub, reading) {
										t.Fatalf("q%d table %d (%s): the reading scores %v above the bound %v", qi, ti, tb.Name, reading, ub)
									}
									if reading > 0 {
										positive++
									}
									continue
								}
								if !(ub >= score) {
									t.Fatalf("q%d table %d (%s): upper bound %v < score %v", qi, ti, tb.Name, ub, score)
								}
								if want := c.UpperBound(tb, oracle.Tuples(q)); !oracle.Agree(c.Avg, ub, want) {
									t.Fatalf("q%d table %d (%s): upper bound %v, oracle's bound %v", qi, ti, tb.Name, ub, want)
								}
								if score > 0 {
									positive++
								}
								// The bound is the score when every tuple is mapped
								// and every entity sits in its best column.
								tight := true
								for tqi := range q {
									tight = tight && sc.mapped[tqi]
									for i, di := range sc.slots[tqi] {
										x := 0.0
										if j := sc.assignment[tqi][i]; j >= 0 {
											x = sc.aggregateColumn(di, j, tb.NumRows())
										}
										tight = tight && x == sc.best[di]
									}
								}
								if tight {
									reached++
									if ub != score {
										t.Fatalf("q%d table %d (%s): every entity has its best column, yet upper bound %v != score %v", qi, ti, tb.Name, ub, score)
									}
								}
							}
						}
						if inRange := sim == types || sim == cosine; positive == 0 || reached == 0 && paperCell(mode, mapping) && inRange {
							t.Fatalf("%d tables scored above 0 and %d reached their bound: the comparison is vacuous", positive, reached)
						}
					})
				}
			}
		}
	}
}

// BenchmarkScoreTable times the scoring kernel alone: one warm scorer (σ
// cache filled, scratch grown) over a fixed seeded table set, so what is
// left is the σ pass, the mapping and the aggregation of each table.
func BenchmarkScoreTable(b *testing.B) {
	l, g := randomCorpus(41, 24, 2000, 200, 20, 6)
	rng := rand.New(rand.NewSource(43))
	sims := []struct {
		name string
		sim  Similarity
	}{
		{"types", NewTypeJaccard(g)},
		{"embeddings", NewEmbeddingCosine(g, randomEmbeddings(rand.New(rand.NewSource(8)), g, 32))},
	}
	queries := []struct {
		name string
		q    Query
	}{
		{"1tuple", randomQuery(rng, g, 1, 3)},
		{"5tuple", randomQuery(rng, g, 5, 3)},
	}
	ids := l.LiveTableIDs()
	for _, s := range sims {
		for _, qc := range queries {
			b.Run(s.name+"/"+qc.name, func(b *testing.B) {
				sc := newScorer(qc.q, IDFInformativeness(l), AggregateMax, NewSigmaCache(qc.q, s.sim, g.NumEntities()))
				// The views a search reads, from the lake's memos.
				views := make([]tableView, len(ids))
				for i, tid := range ids {
					views[i], _ = viewOf(l, sc.shared, tid, holdsAny(l, sc.distinct, tid))
				}
				pass := func() (total float64) {
					for i := range ids {
						score, _ := sc.scoreTable(views[i], true)
						total += score
					}
					return total
				}
				want := pass() // warm-up
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got := pass(); got != want {
						b.Fatalf("pass %d scored %v, warm-up %v", i, got, want)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ids)), "ns/table")
			})
		}
	}
}

// BenchmarkSearchTopK times a full scan of BenchmarkScoreTable's lake as a
// top-10 search, which prunes, against the rank-everything search, which
// cannot; tables pruned per search are reported beside the time.
func BenchmarkSearchTopK(b *testing.B) {
	l, g := randomCorpus(41, 24, 2000, 200, 20, 6)
	q := randomQuery(rand.New(rand.NewSource(43)), g, 5, 3)
	eng := NewEngine(l, NewEmbeddingCosine(g, randomEmbeddings(rand.New(rand.NewSource(8)), g, 32)))
	eng.Parallelism = 1
	for _, k := range []int{10, -1} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			want, _ := eng.Search(q, k) // warm-up: column indexes built
			pruned := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, stats := eng.Search(q, k)
				if len(got) != len(want) || got[0] != want[0] {
					b.Fatalf("search %d returned %d tables led by %v, warm-up %d led by %v", i, len(got), got[0], len(want), want[0])
				}
				pruned += stats.Pruned
			}
			b.ReportMetric(float64(pruned)/float64(b.N), "pruned/search")
		})
	}
}
