package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"thetis/internal/kg"
	"thetis/internal/lake"
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

// TestScoreColumnsMatchesPerCellWalk pins the σ pass to the walk it
// replaced — per (query entity, column), Σ count·σ and max σ over the
// column's entities in ColumnIndex order, one cell at a time — with ==, in
// every way a cell can be read: the dense array, the sharded maps, no cache
// at all, a dense cache sized before the table's entities were interned, and
// a dense cache whose rows were partly filled through SigmaCache.Sigma before
// the pass. Hits and misses are counted per cell: a lookup misses exactly
// when its cell was stored neither before the pass nor earlier in it. Type σ
// runs twice: behind another type ("types"), so its rows are corpus entities
// like any σ's, and as itself ("types-keyed"), where a cell is a (slot, type
// set) pair shared by every entity of the set. A keyed σ sizes its cache by
// its own key space, so the modes that force a representation through the
// entity ID space (sharded, late-entities) do not apply to it.
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
		{"disabled", 0, func(Query, Similarity) *SigmaCache { return nil }},
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
					sc := newScorer(q, sim, UniformInformativeness, AggregateMax, ModeEntityWise, MappingHungarian, cache)
					if mode.name == "sharded" && cache.Dense() {
						t.Fatal("oversized ID space should select the sharded representation")
					}
					for ti, tb := range tables {
						ci := table.BuildColumnIndex(tb)
						var wantMisses int64
						if cache != nil {
							stored := make(map[[2]int]bool)
							for j := range ci.Cols {
								for _, e := range ci.Cols[j].Entities {
									for di := range sc.distinct {
										cell := [2]int{di, int(e)}
										if cache.keyed != nil {
											cell[1] = int(tj.key(e))
										}
										if _, ok := cache.lookup(di, uint32(e)); !ok && !stored[cell] {
											wantMisses++
											stored[cell] = cache.keyed != nil || int(e) < mode.cacheN
										}
									}
								}
							}
						}
						hitsBefore, missesBefore := sc.hits, sc.misses
						sc.scoreColumns(ci, tb.NumRows())
						misses := sc.misses - missesBefore
						lookups, cells := sc.hits-hitsBefore+misses, 0
						for j := range ci.Cols {
							cs := &ci.Cols[j]
							cells += len(cs.Entities)
							for di, qe := range sc.distinct {
								sum, best := 0.0, 0.0
								for i, e := range cs.Entities {
									v := sim.Score(qe, e)
									if got := sc.sigma(di, uint32(e)); got != v {
										t.Fatalf("q%d table %d: σ(%d,%d) reads %v after the pass, want %v", qi, ti, qe, e, got, v)
									}
									sum += float64(cs.Counts[i]) * v
									best = max(best, v)
								}
								if got := sc.sums[di*sc.cols+j]; got != sum {
									t.Fatalf("q%d table %d entity %d column %d: sum %v, per-cell walk %v", qi, ti, di, j, got, sum)
								}
								if got := sc.maxes[di*sc.cols+j]; got != best {
									t.Fatalf("q%d table %d entity %d column %d: max %v, per-cell walk %v", qi, ti, di, j, got, best)
								}
							}
						}
						// One lookup per (distinct query entity, distinct column
						// entity); none is reported without a cache.
						if want := int64(cells * len(sc.distinct)); cache != nil && lookups != want {
							t.Fatalf("q%d table %d: %d lookups, want %d", qi, ti, lookups, want)
						} else if cache == nil && lookups != 0 {
							t.Fatalf("q%d table %d: %d lookups reported without a cache", qi, ti, lookups)
						}
						if misses != wantMisses {
							t.Fatalf("q%d table %d: %d of %d lookups missed, want %d", qi, ti, misses, lookups, wantMisses)
						}
					}
					if cache == nil || !cache.Dense() {
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

// naiveSemRel is Algorithm 1 read off the paper, over raw cells: no column
// index, no σ cache, no distinct-entity slots. Given each query tuple's
// column assignment (-1 = unassigned) it returns SemRel(Q, T): a tuple whose
// assignment total Σᵢ Σ_rows σ(eᵢ, row[µ(i)]) is not positive contributes
// 0; otherwise each entity's row similarities down its column are folded
// by agg and the tuple scores 1/(1+weighted Euclidean distance to the
// ideal point) — or, in pairwise mode, every row scores that way on its
// own and agg folds the row scores.
func naiveSemRel(q Query, t *table.Table, sim Similarity, inf Informativeness, agg Aggregation, mode ScoreMode, assignment [][]int) float64 {
	cellSigma := func(e kg.EntityID, row []table.Cell, j int) float64 {
		if j < 0 {
			return 0
		}
		if ce, ok := row[j].EntityID(); ok {
			return sim.Score(e, ce)
		}
		return 0
	}
	fold := func(xs []float64) float64 {
		sum, best := 0.0, 0.0
		for _, x := range xs {
			sum += x
			best = max(best, x)
		}
		if agg == AggregateAvg {
			return sum / float64(len(xs))
		}
		return best
	}
	semRel := func(tq Tuple, x []float64) float64 {
		distSq := 0.0
		for i, e := range tq {
			distSq += inf(e) * (1 - x[i]) * (1 - x[i])
		}
		return 1 / (math.Sqrt(distSq) + 1)
	}
	total := 0.0
	for ti, tq := range q {
		assigned := 0.0
		for i, e := range tq {
			for _, row := range t.Rows {
				assigned += cellSigma(e, row, assignment[ti][i])
			}
		}
		if !(assigned > 0) {
			continue
		}
		x := make([]float64, len(tq))
		perRow := make([]float64, len(t.Rows))
		if mode == ModePairwise {
			for r, row := range t.Rows {
				for i, e := range tq {
					x[i] = cellSigma(e, row, assignment[ti][i])
				}
				perRow[r] = semRel(tq, x)
			}
			total += fold(perRow)
			continue
		}
		for i, e := range tq {
			for r, row := range t.Rows {
				perRow[r] = cellSigma(e, row, assignment[ti][i])
			}
			x[i] = fold(perRow)
		}
		total += semRel(tq, x)
	}
	return total / float64(len(q))
}

// bestAssignmentTotal is the optimum of the column-mapping objective for
// one tuple by exhaustive search: every injective map of tuple entities to
// columns, entities left over when the table is narrower going unassigned.
func bestAssignmentTotal(S [][]float64, i int, used []bool) float64 {
	if i == len(S) {
		return 0
	}
	best := math.Inf(-1)
	free := 0
	for j := range used {
		if used[j] {
			continue
		}
		free++
		used[j] = true
		best = max(best, S[i][j]+bestAssignmentTotal(S, i+1, used))
		used[j] = false
	}
	// Skipping an entity is allowed only when columns are short.
	if remaining := len(S) - i; free < remaining {
		best = max(best, bestAssignmentTotal(S, i+1, used))
	}
	return best
}

// TestScoreTableMatchesNaiveSemRel checks scorer.scoreTable, with all its
// pre-aggregation and caching, against the naive reading of Algorithm 1
// over agg × mode × mapping × σ: the Hungarian assignment's total is the
// brute-force optimum (1e-9: row-order and count-weighted sums associate
// differently), a greedy one is a valid assignment that does not beat it,
// and under the scorer's own assignment the score is the naive score.
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
			for _, mode := range []ScoreMode{ModeEntityWise, ModePairwise} {
				for _, mapping := range []MappingMethod{MappingHungarian, MappingGreedy} {
					t.Run(fmt.Sprintf("%s/%v/%v/%v", simName, agg, mode, mapping), func(t *testing.T) {
						matched := 0
						for qi, q := range queries {
							sc := newScorer(q, sim, inf, agg, mode, mapping, NewSigmaCache(q, sim, g.NumEntities()))
							for ti, tb := range tables {
								got, _ := sc.scoreTable(tb, nil)
								for tqi, tq := range q {
									// The naive score matrix: σ summed over raw cells.
									S := make([][]float64, len(tq))
									for i, e := range tq {
										S[i] = make([]float64, tb.NumColumns())
										for _, row := range tb.Rows {
											for j := range row {
												if ce, ok := row[j].EntityID(); ok {
													S[i][j] += sim.Score(e, ce)
												}
											}
										}
									}
									a := sc.assignment[tqi]
									seen := make(map[int]bool)
									total := 0.0
									for i, j := range a {
										if j < 0 {
											continue
										}
										if j >= tb.NumColumns() || seen[j] {
											t.Fatalf("q%d table %d tuple %d: assignment %v is not injective into %d columns", qi, ti, tqi, a, tb.NumColumns())
										}
										seen[j] = true
										total += S[i][j]
									}
									opt := bestAssignmentTotal(S, 0, make([]bool, tb.NumColumns()))
									if mapping == MappingHungarian && math.Abs(total-opt) > 1e-9 {
										t.Fatalf("q%d table %d tuple %d: assignment %v totals %v, optimum %v", qi, ti, tqi, a, total, opt)
									}
									if total > opt+1e-9 {
										t.Fatalf("q%d table %d tuple %d: total %v beats the optimum %v", qi, ti, tqi, total, opt)
									}
								}
								want := naiveSemRel(q, tb, sim, inf, agg, mode, sc.assignment)
								if math.Abs(got-want) > 1e-12 {
									t.Fatalf("q%d table %d: scoreTable %v, naive SemRel %v under %v", qi, ti, got, want, sc.assignment)
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

// naiveUpperBound is scorer.upperBound read off its definition, over raw
// cells: every query entity takes the best fold of any one column (never
// below 0, the value of an unassigned entity), all entities at once, and
// every tuple counts.
func naiveUpperBound(q Query, t *table.Table, sim Similarity, inf Informativeness, agg Aggregation, mode ScoreMode) float64 {
	total := 0.0
	for _, tq := range q {
		distSq := 0.0
		for _, e := range tq {
			best := 0.0
			for j := 0; j < t.NumColumns(); j++ {
				sum, top := 0.0, 0.0
				for _, row := range t.Rows {
					if ce, ok := row[j].EntityID(); ok {
						sum += sim.Score(e, ce)
						top = max(top, sim.Score(e, ce))
					}
				}
				if agg == AggregateAvg && mode == ModeEntityWise {
					best = max(best, sum/float64(len(t.Rows)))
				} else {
					best = max(best, top)
				}
			}
			miss := max(1-best, 0)
			distSq += inf(e) * miss * miss
		}
		total += 1 / (math.Sqrt(distSq) + 1)
	}
	return total / float64(len(q))
}

// TestUpperBoundDominatesScore is the exactness of top-k pruning at the
// level of one table: over generated tables × σ × agg × mode × mapping ×
// 1/3/5-tuple queries that repeat entities, upperBound ≥ scoreTable on the
// raw float64s (the search compares them with <, no epsilon), it is the
// naive bound, and entity-wise it is reached (==) whenever the mapping
// already gives every entity of every tuple its best column. The tables
// include unlinked columns, an all-unlinked table, a one-column table and
// constant columns (every row scores the same: the pairwise AVG fold sums n
// equal terms, which can round above the term); the σ's include two that
// leave [0, 1].
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
		sc := newScorer(q, sim, UniformInformativeness, AggregateAvg, ModeEntityWise, MappingHungarian, nil)
		score, _ := sc.scoreTable(tb, nil)
		if a := sc.assignment[0]; a[0] != 1 || a[1] != 0 || !(score < 1) {
			t.Fatalf("assignment %v scoring %v: the fixture no longer sets the entities against each other", a, score)
		}
		if ub := sc.upperBound(1); ub != 1 {
			t.Fatalf("upper bound %v over score %v, want exactly 1: both entities can miss by nothing", ub, score)
		}
	})
	for simName, sim := range sims {
		for _, agg := range []Aggregation{AggregateMax, AggregateAvg} {
			for _, mode := range []ScoreMode{ModeEntityWise, ModePairwise} {
				for _, mapping := range []MappingMethod{MappingHungarian, MappingGreedy} {
					t.Run(fmt.Sprintf("%s/%v/%v/%v", simName, agg, mode, mapping), func(t *testing.T) {
						positive, reached := 0, 0
						for qi, q := range queries {
							sc := newScorer(q, sim, inf, agg, mode, mapping, NewSigmaCache(q, sim, g.NumEntities()))
							for ti, tb := range tables {
								score, _ := sc.scoreTable(tb, nil)
								ub := sc.upperBound(tb.NumRows())
								if !(ub >= score) {
									t.Fatalf("q%d table %d (%s): upper bound %v < score %v", qi, ti, tb.Name, ub, score)
								}
								if want := naiveUpperBound(q, tb, sim, inf, agg, mode); math.Abs(ub-want) > 1e-12 {
									t.Fatalf("q%d table %d (%s): upper bound %v, naive bound %v", qi, ti, tb.Name, ub, want)
								}
								if score > 0 {
									positive++
								}
								// Entity-wise, the bound is the score when every tuple
								// is mapped and every entity sits in its best column.
								tight := mode == ModeEntityWise
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
						if inRange := sim == types || sim == cosine; positive == 0 || reached == 0 && mode == ModeEntityWise && inRange {
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
				sc := newScorer(qc.q, s.sim, IDFInformativeness(l), AggregateMax, ModeEntityWise, MappingHungarian,
					NewSigmaCache(qc.q, s.sim, g.NumEntities()))
				pass := func() (total float64) {
					for _, tid := range ids {
						score, _ := sc.scoreTable(l.Table(tid), l.ColumnIndex(tid))
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
