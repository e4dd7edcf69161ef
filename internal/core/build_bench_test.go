package core_test

import (
	"sync"
	"testing"

	"thetis/internal/core"
	"thetis/internal/datagen"
	"thetis/internal/lake"
)

var (
	buildLakeOnce sync.Once
	buildLake     *lake.Lake
	buildTJ       *core.TypeJaccard
)

// benchBuildLake is the benchmark's lake shape: the default datagen KG and
// a 4,000-table WT2015-profile corpus, both seeded 42 and 43.
func benchBuildLake() (*lake.Lake, *core.TypeJaccard) {
	buildLakeOnce.Do(func() {
		kcfg := datagen.DefaultKGConfig()
		kcfg.Seed = 42
		k := datagen.GenerateKG(kcfg)
		profile := datagen.ProfileWT2015(4000)
		profile.Seed = 43
		buildLake = datagen.GenerateCorpus(k, profile)
		buildTJ = core.NewTypeJaccard(k.Graph)
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
