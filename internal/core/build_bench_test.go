package core_test

import (
	"context"
	"sync"
	"testing"

	"thetis/internal/core"
	"thetis/internal/datagen"
	"thetis/internal/lake"
	"thetis/internal/table"
)

var (
	buildLakeOnce sync.Once
	buildKG       *datagen.KG
	buildLake     *lake.Lake
	buildTJ       *core.TypeJaccard
)

// benchBuildLake is the benchmark's lake shape: the default datagen KG and
// a 4,000-table WT2015-profile corpus, both seeded 42 and 43.
func benchBuildLake() (*lake.Lake, *core.TypeJaccard) {
	buildLakeOnce.Do(func() {
		kcfg := datagen.DefaultKGConfig()
		kcfg.Seed = 42
		buildKG = datagen.GenerateKG(kcfg)
		profile := datagen.ProfileWT2015(4000)
		profile.Seed = 43
		buildLake = datagen.GenerateCorpus(buildKG, profile)
		buildTJ = core.NewTypeJaccard(buildKG.Graph)
	})
	return buildLake, buildTJ
}

// BenchmarkBuildTypeLSEI times what a type index costs to get ready in the
// paper's (30,10) configuration: the frequent-type filter count over every
// table alone, and the full build (filter, then one signature per interned
// type set and one bucket insert per lake entity) — what BuildIndex and
// each Compact pay.
func BenchmarkBuildTypeLSEI(b *testing.B) {
	l, tj := benchBuildLake()
	cfg := core.DefaultLSEIConfig()
	b.Run("filter", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			core.NewTypeFilterState(l, tj, cfg.FrequentTypeThreshold)
		}
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			core.BuildTypeLSEI(l, tj, cfg)
		}
	})
}

// BenchmarkBuildKeyGroups times summarizing every table of benchBuildLake by
// column key groups, the build a table pays on its first read under a σ:
// "types" keys its cells by interned type set (type σ, lake.KeyGroups),
// "entities" by entity (every other σ, and type σ's identity correction:
// lake.ColumnIndex). One op is the whole lake.
func BenchmarkBuildKeyGroups(b *testing.B) {
	l, tj := benchBuildLake()
	typeKey := tj.Key
	for _, keying := range []struct {
		name  string
		build func(*table.Table)
	}{
		{"types", func(t *table.Table) { table.BuildKeyGroups(t, typeKey) }},
		{"entities", func(t *table.Table) { table.BuildColumnIndex(t) }},
	} {
		b.Run(keying.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				for _, t := range l.Tables() {
					keying.build(t)
				}
			}
		})
	}
}

// BenchmarkSearchWarm times a warm type-σ search behind the LSEI prefilter —
// probe, vote, σ, mapping, rank — in the paper's (30,10) configuration at
// k = 10, over two lakes. "1entity" and "5entity" search a random lake
// (core.RandomCorpus) with one query of one and five entities, whose
// columns hold many type sets each. "datagen/1tuple" and "datagen/5tuple"
// search benchBuildLake, the benchmark's own lake shape, whose columns hold
// one to three type sets, cycling through eight generated queries of one
// and five width-3 tuples. Its allocations are what a search costs once
// the σ slab and vote workspace are pooled.
func BenchmarkSearchWarm(b *testing.B) {
	l, g := core.RandomCorpus(41, 24, 8000, 4000, 6, 3)
	tj := core.NewTypeJaccard(g)
	random := struct {
		eng *core.Engine
		x   *core.LSEI
	}{core.NewEngine(l, tj), core.BuildTypeLSEI(l, tj, core.DefaultLSEIConfig())}
	dl, dtj := benchBuildLake()
	deng, dx := core.NewEngine(dl, dtj), core.BuildTypeLSEI(dl, dtj, core.DefaultLSEIConfig())
	generated := func(tuples int) []core.Query {
		var qs []core.Query
		for _, bq := range datagen.GenerateQueries(buildKG, datagen.QueryConfig{Count: 8, TuplesPerQuery: tuples, Width: 3, Seed: 7}) {
			qs = append(qs, bq.Query)
		}
		return qs
	}
	cases := []struct {
		name    string
		eng     *core.Engine
		x       *core.LSEI
		queries []core.Query
	}{
		{"1entity", random.eng, random.x, []core.Query{{{1}}}},
		{"5entity", random.eng, random.x, []core.Query{{{1, 2, 3}, {4, 5}}}},
		{"datagen/1tuple", deng, dx, generated(1)},
		{"datagen/5tuple", deng, dx, generated(5)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			want := make([]int, len(c.queries))
			for i, q := range c.queries {
				got, _ := core.SearchWithIndex(context.Background(), c.eng, c.x, 1, q, 10, core.FallbackFullScan)
				want[i] = len(got)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qi := i % len(c.queries)
				if got, _ := core.SearchWithIndex(context.Background(), c.eng, c.x, 1, c.queries[qi], 10, core.FallbackFullScan); len(got) != want[qi] {
					b.Fatalf("run %d: %d results, warm-up %d", i, len(got), want[qi])
				}
			}
		})
	}
}
