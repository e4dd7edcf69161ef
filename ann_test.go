package thetis

// ANN serving battery (docs/ANN.md): top-k σ must be a pure serving-time
// overlay — off means rankings bit-identical to the core-assembled exact
// reference (internal/reference), on means rankings bit-identical to the
// reference with the same graph wired into its engine, at every shard count
// and parallelism, and a corpus mutation degrades to exact σ (never a stale
// graph) until the background rebuild lands. The concurrency legs run under
// -race via `make race`.

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"thetis/internal/core"
	"thetis/internal/embedding"
	"thetis/internal/obs"
	"thetis/internal/reference"
)

var (
	annOnce    sync.Once
	annStore   *EmbeddingStore
	annQueries []Query
)

// annEnv trains one small embedding store over the shared battery KG and
// derives mixed 1-/5-tuple queries. The store is immutable and shared; each
// test builds its own System around it.
func annEnv(t *testing.T) (*EmbeddingStore, []*Table, []Query) {
	t.Helper()
	kgEnv, tables, queries := batteryEnv(t)
	annOnce.Do(func() {
		sys := New(kgEnv.Graph)
		annStore = sys.TrainEmbeddings(
			WalkConfig{WalksPerEntity: 6, Length: 6, Undirected: true, Seed: 9},
			TrainConfig{Dim: 16, Window: 3, Negatives: 4, Epochs: 2, LearningRate: 0.03, Seed: 9},
		)
		annQueries = queries
	})
	return annStore, tables, annQueries
}

// annSystem builds a System partitioned by part over the first n battery
// tables with embedding σ selected; enable ANN per test.
func annSystem(t *testing.T, n int, part Partitioner) *System {
	t.Helper()
	store, tables, _ := annEnv(t)
	sys := NewSharded(batteryKG.Graph, part)
	for _, tb := range tables[:n] {
		sys.AddTable(tb)
	}
	sys.SetEmbeddings(store)
	sys.UseEmbeddingSimilarity()
	return sys
}

// annReference is the core-assembled exact-σ reference over the first n
// battery tables; wire a graph into its engine per test.
func annReference(t *testing.T, n int) *reference.Reference {
	t.Helper()
	store, tables, _ := annEnv(t)
	return reference.New(batteryKG.Graph, tables[:n], core.NewEmbeddingCosine(batteryKG.Graph, store))
}

func rankingsEqual(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Table != b[i].Table || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// TestANNOffBitIdentical: enabling then disabling ANN must leave the engines
// scoring bit-identically to the exact reference.
func TestANNOffBitIdentical(t *testing.T) {
	_, _, queries := annEnv(t)
	plain := annReference(t, 200)
	toggled := annSystem(t, 200, NewHashPartitioner(2))
	if err := toggled.EnableAnnTopK(10, 64); err != nil {
		t.Fatal(err)
	}
	toggled.DisableAnnTopK()
	for qi, q := range queries {
		want, _ := plain.Search(q, 10)
		got := toggled.Search(q, 10)
		if !rankingsEqual(want, got) {
			t.Fatalf("q%d: rankings differ after enable/disable round trip", qi)
		}
	}
}

// TestANNDeterministicAcrossParallelism: neighborhoods are resolved before
// scoring workers start, so the top-k σ ranking must not depend on the
// worker count.
func TestANNDeterministicAcrossParallelism(t *testing.T) {
	_, _, queries := annEnv(t)
	sys := annSystem(t, 200, NewHashPartitioner(1))
	if err := sys.EnableAnnTopK(10, 64); err != nil {
		t.Fatal(err)
	}
	var baseline [][]Result
	for _, par := range []int{1, 4, 16} {
		sys.SetParallelism(par)
		for qi, q := range queries {
			got := sys.Search(q, 10)
			if par == 1 {
				baseline = append(baseline, got)
				continue
			}
			if !rankingsEqual(baseline[qi], got) {
				t.Fatalf("q%d: ranking at parallelism %d differs from parallelism 1", qi, par)
			}
		}
	}
}

// TestANNMatchesReferenceAtEveryShardCount: one shared graph serves every
// shard, so with ANN on a system must rank bit-identically to the reference
// engine scoring through the same (deterministically built) graph.
func TestANNMatchesReferenceAtEveryShardCount(t *testing.T) {
	store, _, queries := annEnv(t)
	ref := annReference(t, 200)
	cfg := embedding.DefaultHNSWConfig()
	cfg.EfSearch = 64
	ref.Engine.SigmaTopK = 10
	ref.Engine.Ann = core.StaticAnn(embedding.BuildHNSW(store, cfg))
	for _, ax := range shardAxes() {
		ss := annSystem(t, 200, ax.part())
		if err := ss.EnableAnnTopK(10, 64); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			want, _ := ref.Search(q, 10)
			if got := ss.Search(q, 10); !rankingsEqual(want, got) {
				t.Fatalf("%s q%d: ANN ranking differs from the reference", ax.name, qi)
			}
		}
		if st := ss.AnnStatus(); !st.Enabled || !st.Current || st.GraphNodes == 0 {
			t.Fatalf("%s: AnnStatus = %+v", ax.name, st)
		}
	}
}

// TestANNEpochFallbackAndRebuild: a corpus mutation must flip the graph to
// stale, searches must serve exact σ meanwhile (never the stale graph), and
// the background rebuild must converge to a current graph.
func TestANNEpochFallbackAndRebuild(t *testing.T) {
	_, tables, queries := annEnv(t)
	sys := annSystem(t, 200, NewHashPartitioner(2))
	exact := annReference(t, 201) // exact σ over the corpus after the mutation
	if err := sys.EnableAnnTopK(10, 64); err != nil {
		t.Fatal(err)
	}
	if st := sys.AnnStatus(); !st.Enabled || !st.Current {
		t.Fatalf("fresh AnnStatus = %+v", st)
	}

	sys.AddTable(tables[200])
	if st := sys.AnnStatus(); st.Current {
		t.Fatalf("AnnStatus still current after mutation: %+v", st)
	}
	// The first search after the epoch bump serves the degraded exact
	// fallback — bit-identical to the pure exact system.
	for qi, q := range queries {
		if want, _ := exact.Search(q, 10); !rankingsEqual(want, sys.Search(q, 10)) {
			t.Fatalf("q%d: degraded fallback differs from exact", qi)
		}
	}
	// The fallback search kicked a single-flight rebuild; wait for it.
	deadline := time.Now().Add(10 * time.Second)
	for !sys.AnnStatus().Current {
		if time.Now().After(deadline) {
			t.Fatal("ANN graph never caught up with the corpus epoch")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for qi, q := range queries {
		if got := sys.Search(q, 10); len(got) == 0 {
			t.Fatalf("q%d: no results after rebuild", qi)
		}
	}
}

// TestANNConcurrentSearchScrapeRebuild hammers one ANN-enabled system with
// concurrent searches and /metrics scrapes while corpus mutations force
// epoch rebuilds mid-flight. Run under -race (make race); the assertion
// is the absence of races/panics plus non-empty results throughout.
func TestANNConcurrentSearchScrapeRebuild(t *testing.T) {
	_, tables, queries := annEnv(t)
	sys := annSystem(t, 200, NewHashPartitioner(2))
	if err := sys.EnableAnnTopK(10, 64); err != nil {
		t.Fatal(err)
	}
	handler := obs.Default.Handler()

	var wg sync.WaitGroup
	errc := make(chan error, 32)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(w+i)%len(queries)]
				if res := sys.Search(q, 10); len(res) == 0 {
					select {
					case errc <- fmt.Errorf("worker %d: empty result", w):
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if rec.Code != 200 {
				select {
				case errc <- fmt.Errorf("metrics scrape status %d", rec.Code):
				default:
				}
				return
			}
			_ = sys.AnnStatus()
		}
	}()
	// Mutations from the test goroutine: each bumps the epoch, forcing the
	// searchers through the degraded-fallback + background-rebuild path.
	for i := 200; i < 210 && i < len(tables); i++ {
		sys.AddTable(tables[i])
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
