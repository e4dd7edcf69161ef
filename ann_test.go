package thetis

// ANN serving battery (docs/ANN.md): top-k σ must be a pure serving-time
// overlay — off means rankings bit-identical to the core-assembled exact
// reference (internal/reference), on means rankings bit-identical to the
// reference with the same graph wired into its engine, at every shard count
// and parallelism. The graph follows the embedding store: corpus mutations
// leave it installed, re-selecting σ drops it. The concurrency leg runs
// under -race via `make race`.

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
	ref.Engine.Ann = embedding.BuildHNSW(store, cfg)
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
		if st := ss.AnnStatus(); !st.Enabled || st.GraphNodes == 0 {
			t.Fatalf("%s: AnnStatus = %+v", ax.name, st)
		}
	}
}

// TestANNSurvivesMutation: the graph indexes the embedding store, so a
// corpus mutation neither replaces it nor takes a search off it — the very
// next search is scored through the same graph.
func TestANNSurvivesMutation(t *testing.T) {
	_, tables, queries := annEnv(t)
	sys := annSystem(t, 200, NewHashPartitioner(2))
	if err := sys.EnableAnnTopK(10, 64); err != nil {
		t.Fatal(err)
	}
	graph := sys.ann
	ref := annReference(t, 201) // the corpus after the mutations below
	ref.Engine.SigmaTopK, ref.Engine.Ann = 10, graph

	sys.AddTable(tables[200])
	if err := sys.RemoveTable(sys.AddTable(tables[201])); err != nil {
		t.Fatal(err)
	}
	annQueries := obs.AnnQueriesTotal()
	before := annQueries.Value()
	_, stats := sys.SearchStats(queries[0], 10)
	if st := stats.Trace.Stage("ann"); st == nil || st.Items == 0 {
		t.Fatalf("search after a mutation carries ann stage %+v", st)
	}
	if annQueries.Value() == before {
		t.Fatal("search after a mutation did not count on thetis_ann_queries_total")
	}
	if sys.ann != graph {
		t.Fatal("mutation replaced the ANN graph")
	}
	for qi, q := range queries {
		if want, _ := ref.Search(q, 10); !rankingsEqual(want, sys.Search(q, 10)) {
			t.Fatalf("q%d: ranking after mutation differs from the reference over the same graph", qi)
		}
	}
}

// TestANNDroppedOnSimilarityReselect: re-selecting σ installs fresh exact
// engines, so the graph (built over the store σ used to read) goes with
// them and AnnStatus says what the engines do.
func TestANNDroppedOnSimilarityReselect(t *testing.T) {
	store, _, queries := annEnv(t)
	sys := annSystem(t, 200, NewHashPartitioner(2))
	if err := sys.EnableAnnTopK(10, 64); err != nil {
		t.Fatal(err)
	}
	sys.SetEmbeddings(store)
	sys.UseEmbeddingSimilarity()
	if _, stats := sys.SearchStats(queries[0], 10); stats.Trace.Stage("ann") != nil {
		t.Fatal("re-selected σ still scores through the old graph")
	}
	if st := sys.AnnStatus(); st.Enabled {
		t.Fatalf("AnnStatus = %+v while the engines score exact σ", st)
	}
}

// TestANNConcurrentSearchScrapeRebuild hammers one ANN-enabled system with
// concurrent searches, /metrics scrapes and AnnStatus reads while the corpus
// mutates. Run under -race (make race); the assertion is the absence of
// races/panics plus non-empty results throughout.
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
	// Mutations from the test goroutine, interleaved with the searchers.
	for i := 200; i < 210 && i < len(tables); i++ {
		sys.AddTable(tables[i])
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
