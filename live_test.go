package thetis

// Rebuild-equivalence battery for live-lake maintenance (docs/LIVE_INDEX.md):
// after ANY sequence of AddTable/RemoveTable against live indexes, search
// results must match a from-scratch reference over the surviving corpus,
// scored by the naive oracle (internal/reference), under the oracle's
// comparison rule: same tables in the same order, score bits equal under
// MAX. The battery runs seeded randomized mutation sequences across
// aggregations, parallelism, vote thresholds, and both similarity families,
// with and without LSH prefiltering, plus keyword and hybrid search; a
// failing sequence is automatically shrunk to a minimal reproducer.
// `make race` runs these under the race detector.

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"thetis/internal/atomicio"
	"thetis/internal/bm25"
	"thetis/internal/core"
	"thetis/internal/faultio"
	"thetis/internal/obs"
	"thetis/internal/reference"
)

// liveKeywords is the fixed keyword query of the keyword/hybrid legs.
const liveKeywords = "member domain city"

// liveOp is one corpus mutation. Adds name a table by corpus position;
// removes pick a victim by reducing pick modulo the live count at
// application time, so an op list stays applicable after shrinking.
type liveOp struct {
	add   bool
	table int    // add: index into the battery table slice
	pick  uint32 // remove: selects st.ids[pick % len(st.ids)]
}

func (op liveOp) String() string {
	if op.add {
		return fmt.Sprintf("add(t%d)", op.table)
	}
	return fmt.Sprintf("remove(pick%%%d)", op.pick)
}

func opsString(ops []liveOp) string {
	parts := make([]string, len(ops))
	for i, op := range ops {
		parts[i] = op.String()
	}
	return strings.Join(parts, " ")
}

// genLiveOps generates a seeded mutation sequence: n ops mixing adds of
// fresh tables from [firstTable, lastTable) with removes of random live
// tables, simulating the live count so every op is applicable.
func genLiveOps(seed int64, n, baseLive, firstTable, lastTable int) []liveOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]liveOp, 0, n)
	live, next := baseLive, firstTable
	for len(ops) < n {
		add := rng.Float64() < 0.55
		if next >= lastTable {
			add = false
		}
		if live == 0 {
			add = true
		}
		if add && next >= lastTable {
			break // nothing left to add and nothing left to remove
		}
		if add {
			ops = append(ops, liveOp{add: true, table: next})
			next++
			live++
		} else {
			ops = append(ops, liveOp{pick: rng.Uint32()})
			live--
		}
	}
	return ops
}

// liveState tracks the live corpus of an incremental system: IDs (in the
// system's sparse, tombstoned ID space) and tables, both in ascending ID
// order — the ingestion order a from-scratch rebuild uses.
type liveState struct {
	ids  []TableID
	tabs []*Table
}

func baseState(n int, tables []*Table) *liveState {
	st := &liveState{ids: make([]TableID, n), tabs: make([]*Table, n)}
	for i := 0; i < n; i++ {
		st.ids[i] = TableID(i)
		st.tabs[i] = tables[i]
	}
	return st
}

// apply runs one op against the incremental system, keeping st in sync.
func (st *liveState) apply(m *System, op liveOp, tables []*Table) error {
	if op.add {
		id := m.AddTable(tables[op.table])
		if len(st.ids) > 0 && id <= st.ids[len(st.ids)-1] {
			return fmt.Errorf("AddTable reused ID %d (last was %d)", id, st.ids[len(st.ids)-1])
		}
		st.ids = append(st.ids, id)
		st.tabs = append(st.tabs, tables[op.table])
		return nil
	}
	if len(st.ids) == 0 {
		return nil // shrunk sequence removed the adds; treat as no-op
	}
	i := int(op.pick) % len(st.ids)
	if err := m.RemoveTable(st.ids[i]); err != nil {
		return fmt.Errorf("RemoveTable(%d): %v", st.ids[i], err)
	}
	st.ids = append(st.ids[:i], st.ids[i+1:]...)
	st.tabs = append(st.tabs[:i], st.tabs[i+1:]...)
	return nil
}

// liveConfig is one point of the equivalence matrix.
type liveConfig struct {
	name    string
	agg     Aggregation
	par     int
	votes   int
	lsh     bool
	keyword bool
	// compactAfter, when >= 0, calls Compact after that many ops (and again
	// at the end), proving compaction never changes results.
	compactAfter int
}

// configureLive applies a liveConfig's knobs to a freshly ingested system.
func configureLive(s *System, cfg liveConfig) {
	s.UseTypeSimilarity()
	s.SetAggregation(cfg.agg)
	s.SetParallelism(cfg.par)
	if cfg.lsh {
		s.BuildIndex(DefaultIndexConfig())
		s.SetVotes(cfg.votes)
	}
	if cfg.keyword {
		s.BuildKeywordIndex()
	}
}

// buildLiveReference assembles the from-scratch reference over the
// surviving corpus, ingested in ascending live-ID order, configured
// identically.
func buildLiveReference(st *liveState, cfg liveConfig) *reference.Reference {
	ref := reference.New(batteryKG.Graph, st.tabs, batteryTJ)
	ref.Agg = cfg.agg
	if cfg.lsh {
		ref.Index = core.BuildTypeLSEI(ref.Lake, batteryTJ, DefaultIndexConfig())
		ref.Votes = cfg.votes
	}
	if cfg.keyword {
		ref.Keyword = bm25.IndexLake(ref.Lake)
	}
	return ref
}

// assertLiveEquivalence compares the incremental system against the rebuilt
// reference. Reference IDs are dense (0..len-1 in survivor order); the
// incremental system's IDs are st.ids at the same positions — the map is
// monotone, so rank order and tie-breaks must agree exactly.
func assertLiveEquivalence(inc *System, ref *reference.Reference, st *liveState, cfg liveConfig, queries []Query, k int) error {
	if got, want := inc.NumTables(), len(st.ids); got != want {
		return fmt.Errorf("NumTables = %d, survivors = %d", got, want)
	}
	mapID := func(refID TableID) (TableID, error) {
		if int(refID) < 0 || int(refID) >= len(st.ids) {
			return 0, fmt.Errorf("reference returned out-of-range ID %d", refID)
		}
		return st.ids[int(refID)], nil
	}
	for qi, q := range queries {
		want := ref.Search(q, -1)
		got, gotStats := inc.SearchStats(q, k)
		if gotStats.Truncated {
			return fmt.Errorf("q%d: unexpected truncation", qi)
		}
		for i := range want {
			wantID, err := mapID(want[i].Table)
			if err != nil {
				return fmt.Errorf("q%d rank %d: %v", qi, i, err)
			}
			want[i].Table = wantID
		}
		if err := ref.Agree(got, want, k); err != nil {
			return fmt.Errorf("q%d, incremental against the rebuild (IDs mapped): %v", qi, err)
		}
	}
	if cfg.keyword {
		want := ref.KeywordSearch(liveKeywords, 10)
		got := inc.KeywordSearch(liveKeywords, 10)
		if len(got) != len(want) {
			return fmt.Errorf("keyword: incremental returned %d results, rebuild %d", len(got), len(want))
		}
		for i := range want {
			wantID, err := mapID(want[i])
			if err != nil {
				return fmt.Errorf("keyword rank %d: %v", i, err)
			}
			if got[i] != wantID {
				return fmt.Errorf("keyword rank %d: incremental %d, rebuild %d→%d", i, got[i], want[i], wantID)
			}
		}
		wantH := ref.HybridSearch(queries[1], liveKeywords, 10)
		gotH := inc.HybridSearch(queries[1], liveKeywords, 10)
		if len(gotH) != len(wantH) {
			return fmt.Errorf("hybrid: incremental returned %d results, rebuild %d", len(gotH), len(wantH))
		}
		for i := range wantH {
			wantID, err := mapID(wantH[i])
			if err != nil {
				return fmt.Errorf("hybrid rank %d: %v", i, err)
			}
			if gotH[i] != wantID {
				return fmt.Errorf("hybrid rank %d: incremental %d, rebuild %d→%d", i, gotH[i], wantH[i], wantID)
			}
		}
	}
	return nil
}

// runLiveScenario ingests baseN tables into a fresh incremental system (made
// by mk), configures it, applies ops against the LIVE indexes, then checks
// rebuild equivalence. Returns nil when the invariant holds.
func runLiveScenario(mk func() *System, tables []*Table, queries []Query, cfg liveConfig, baseN int, ops []liveOp) error {
	inc := mk()
	st := baseState(baseN, tables)
	for _, tb := range st.tabs {
		inc.AddTable(tb)
	}
	configureLive(inc, cfg)
	for i, op := range ops {
		if err := st.apply(inc, op, tables); err != nil {
			return fmt.Errorf("op %d (%s): %v", i, op, err)
		}
		if cfg.compactAfter >= 0 && i == cfg.compactAfter {
			inc.Compact()
		}
	}
	if cfg.compactAfter >= 0 {
		inc.Compact()
	}
	ref := buildLiveReference(st, cfg)
	if err := assertLiveEquivalence(inc, ref, st, cfg, queries, 10); err != nil {
		return err
	}
	// Unbounded k on a couple of queries exercises full-ranking equality.
	return assertLiveEquivalence(inc, ref, st, cfg, queries[:2], -1)
}

// shrinkLiveOps minimizes a failing op sequence by repeatedly deleting
// chunks while the failure persists (delta-debugging style, trial-bounded
// since every trial rebuilds two systems).
func shrinkLiveOps(check func([]liveOp) error, ops []liveOp) []liveOp {
	trials := 0
	for chunk := len(ops) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start < len(ops) && trials < 48; {
			end := start + chunk
			if end > len(ops) {
				end = len(ops)
			}
			cand := make([]liveOp, 0, len(ops)-(end-start))
			cand = append(cand, ops[:start]...)
			cand = append(cand, ops[end:]...)
			trials++
			if check(cand) != nil {
				ops = cand // still fails without the chunk: keep it out
			} else {
				start = end
			}
		}
	}
	return ops
}

// checkLive runs a scenario and, on failure, shrinks the op sequence to a
// minimal reproducer before failing the test.
func checkLive(t *testing.T, label string, mk func() *System, tables []*Table, queries []Query, cfg liveConfig, baseN int, ops []liveOp) {
	t.Helper()
	check := func(ops []liveOp) error {
		return runLiveScenario(mk, tables, queries, cfg, baseN, ops)
	}
	err := check(ops)
	if err == nil {
		return
	}
	min := shrinkLiveOps(check, ops)
	t.Fatalf("%s: rebuild equivalence broken: %v\nminimal sequence (%d of %d ops, base %d tables): %s",
		label, check(min), len(min), len(ops), baseN, opsString(min))
}

func TestLiveRebuildEquivalence(t *testing.T) {
	kgEnv, tables, queries := batteryEnv(t)
	mk := func() *System { return New(kgEnv.Graph) }
	const baseN = 200
	configs := []liveConfig{
		{name: "max-entitywise-lsh3-kw", agg: AggregateMax,
			par: 0, votes: 3, lsh: true, keyword: true, compactAfter: -1},
		{name: "avg-entitywise-lsh1-par1", agg: AggregateAvg,
			par: 1, votes: 1, lsh: true, compactAfter: -1},
		{name: "max-entitywise-lsh2-par4", agg: AggregateMax,
			par: 4, votes: 2, lsh: true, compactAfter: -1},
		{name: "avg-entitywise-noindex-kw", agg: AggregateAvg,
			par: 2, keyword: true, compactAfter: -1},
	}
	for _, cfg := range configs {
		ops := genLiveOps(41, 60, baseN, baseN, len(tables))
		checkLive(t, cfg.name, mk, tables, queries, cfg, baseN, ops)
	}
	// Extra seeds on the paper-default configuration.
	for _, seed := range []int64{7, 1009} {
		cfg := liveConfig{name: fmt.Sprintf("default-seed%d", seed), agg: AggregateMax,
			votes: 3, lsh: true, keyword: true, compactAfter: -1}
		ops := genLiveOps(seed, 60, baseN, baseN, len(tables))
		checkLive(t, cfg.name, mk, tables, queries, cfg, baseN, ops)
	}
}

func TestLiveCompactionPreservesResults(t *testing.T) {
	kgEnv, tables, queries := batteryEnv(t)
	mk := func() *System { return New(kgEnv.Graph) }
	const baseN = 200
	// Compact mid-sequence AND after the final op; results must still match
	// the rebuild (compaction rebuilds the same structures the reference
	// builds).
	cfg := liveConfig{name: "compact", agg: AggregateMax,
		votes: 3, lsh: true, keyword: true, compactAfter: 25}
	ops := genLiveOps(4242, 50, baseN, baseN, len(tables))
	checkLive(t, cfg.name, mk, tables, queries, cfg, baseN, ops)
}

func TestLiveRebuildEquivalenceEmbeddings(t *testing.T) {
	kgEnv, tables, queries := batteryEnv(t)
	const baseN = 150
	// Train once on the shared graph; every trial system reuses the store.
	trainer := New(kgEnv.Graph)
	store := trainer.TrainEmbeddings(
		WalkConfig{WalksPerEntity: 4, Length: 5, Undirected: true, Seed: 9},
		TrainConfig{Dim: 16, Window: 3, Negatives: 3, Epochs: 2, LearningRate: 0.03, Seed: 9},
	)
	ops := genLiveOps(77, 40, baseN, baseN, len(tables))

	inc := New(kgEnv.Graph)
	st := baseState(baseN, tables)
	for _, tb := range st.tabs {
		inc.AddTable(tb)
	}
	inc.SetEmbeddings(store)
	inc.UseEmbeddingSimilarity()
	inc.BuildIndex(DefaultIndexConfig())
	inc.SetVotes(2)
	for i, op := range ops {
		if err := st.apply(inc, op, tables); err != nil {
			t.Fatalf("op %d (%s): %v", i, op, err)
		}
	}
	ec := core.NewEmbeddingCosine(kgEnv.Graph, store)
	ref := reference.New(kgEnv.Graph, st.tabs, ec)
	ref.Index = core.BuildEmbeddingLSEI(ref.Lake, ec, store.Dim(), DefaultIndexConfig())
	ref.Votes = 2
	cfg := liveConfig{name: "embeddings"} // semantic legs only
	if err := assertLiveEquivalence(inc, ref, st, cfg, queries, 10); err != nil {
		t.Fatalf("embeddings: rebuild equivalence broken: %v\nops: %s", err, opsString(ops))
	}
}

func TestLiveEpochSemantics(t *testing.T) {
	kgEnv, tables, _ := batteryEnv(t)
	sys := New(kgEnv.Graph)
	for _, tb := range tables[:20] {
		sys.AddTable(tb)
	}
	if got := sys.IndexEpoch(); got != 20 {
		t.Fatalf("epoch after 20 adds = %d, want 20", got)
	}
	sys.UseTypeSimilarity()
	sys.BuildIndex(DefaultIndexConfig())
	if got := sys.IndexEpoch(); got != 20 {
		t.Fatalf("BuildIndex (a hot-swap, not a mutation) moved the epoch to %d", got)
	}
	id := sys.AddTable(tables[20])
	if got := sys.IndexEpoch(); got != 21 {
		t.Fatalf("epoch after add = %d, want 21", got)
	}
	if err := sys.RemoveTable(id); err != nil {
		t.Fatalf("RemoveTable(%d): %v", id, err)
	}
	if got := sys.IndexEpoch(); got != 22 {
		t.Fatalf("epoch after remove = %d, want 22", got)
	}
	if sys.Table(id) != nil {
		t.Fatalf("Table(%d) is not nil after removal", id)
	}
	if err := sys.RemoveTable(id); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("double remove returned %v, want ErrNoSuchTable", err)
	}
	if err := sys.RemoveTable(9999); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("remove of unassigned ID returned %v, want ErrNoSuchTable", err)
	}
	sys.Compact()
	if got := sys.IndexEpoch(); got != 22 {
		t.Fatalf("Compact (corpus unchanged) moved the epoch to %d", got)
	}
	// IDs are never reused: re-adding the same table gets a fresh slot.
	if again := sys.AddTable(tables[20]); again == id {
		t.Fatalf("removed ID %d was reused", id)
	} else if got := sys.IndexEpoch(); got != 23 {
		t.Fatalf("epoch after re-add = %d, want 23", got)
	} else if sys.Table(again) == nil {
		t.Fatalf("re-added table %d not visible", again)
	}
	if sys.Table(id) != nil {
		t.Fatalf("tombstoned slot %d resurrected by re-add", id)
	}
}

func TestLiveConcurrentSearchDuringMutation(t *testing.T) {
	kgEnv, tables, queries := batteryEnv(t)
	const baseN = 150
	// A System serves its lake as one local shard.
	t.Run("shards1", func(t *testing.T) {
		inc := New(kgEnv.Graph)
		st := baseState(baseN, tables)
		for _, tb := range st.tabs {
			inc.AddTable(tb)
		}
		cfg := liveConfig{agg: AggregateMax,
			votes: 2, lsh: true, keyword: true, compactAfter: -1}
		configureLive(inc, cfg)

		done := make(chan struct{})
		var scrapeErr atomic.Value
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for {
					select {
					case <-done:
						return
					default:
					}
					q := queries[rng.Intn(len(queries))]
					switch w % 4 {
					case 0:
						inc.SearchStats(q, 10)
					case 1:
						inc.KeywordSearch(liveKeywords, 10)
					case 2:
						inc.HybridSearch(q, liveKeywords, 10)
					case 3:
						inc.NumTables()
						inc.IndexEpoch()
						// A /metrics scrape reads every series the
						// searches and mutations above are writing.
						rec := httptest.NewRecorder()
						obs.Default.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
						if rec.Code != 200 {
							scrapeErr.Store(fmt.Errorf("metrics scrape status %d", rec.Code))
						}
					}
				}
			}(w)
		}
		ops := genLiveOps(99, 40, baseN, baseN, len(tables))
		for i, op := range ops {
			if err := st.apply(inc, op, tables); err != nil {
				close(done)
				wg.Wait()
				t.Fatalf("op %d (%s): %v", i, op, err)
			}
			if i == len(ops)/2 {
				inc.Compact() // hot-swap under live queries
			}
		}
		close(done)
		wg.Wait()
		if err, _ := scrapeErr.Load().(error); err != nil {
			t.Fatal(err)
		}
		// After the dust settles the equivalence invariant still holds.
		ref := buildLiveReference(st, cfg)
		if err := assertLiveEquivalence(inc, ref, st, cfg, queries, 10); err != nil {
			t.Fatalf("post-concurrency equivalence broken: %v", err)
		}
	})
}

// newLiveBase builds a System over the first baseN battery tables with the
// default live configuration — the shared starting point of the delta-log
// tests (a "base snapshot" both the original and the restarted process
// load).
func newLiveBase(baseN int) (*System, *liveState) {
	sys := New(batteryKG.Graph)
	st := baseState(baseN, batteryTables)
	for _, tb := range st.tabs {
		sys.AddTable(tb)
	}
	sys.UseTypeSimilarity()
	sys.BuildIndex(DefaultIndexConfig())
	sys.SetVotes(2)
	sys.BuildKeywordIndex()
	return sys, st
}

func TestLiveDeltaLogRestartReplay(t *testing.T) {
	_, tables, queries := batteryEnv(t)
	const baseN = 150
	// A System serves its lake as one local shard.
	t.Run("shards1", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "deltas.log")

		// Original process: base corpus, fresh log, live mutations.
		orig, st := newLiveBase(baseN)
		if err := orig.AttachDeltaLog(path); err != nil {
			t.Fatalf("attach fresh log: %v", err)
		}
		ops := genLiveOps(2025, 40, baseN, baseN, len(tables))
		for i, op := range ops {
			if err := st.apply(orig, op, tables); err != nil {
				t.Fatalf("op %d (%s): %v", i, op, err)
			}
		}
		if err := orig.DeltaLogError(); err != nil {
			t.Fatalf("delta log went sticky-bad during mutation: %v", err)
		}
		if err := orig.CloseDeltaLog(); err != nil {
			t.Fatalf("close log: %v", err)
		}

		// Restarted process: same base corpus, replay
		// the log into the live indexes. Every search modality must match
		// the original and a from-scratch reference over the survivors.
		restarted, _ := newLiveBase(baseN)
		if err := restarted.AttachDeltaLog(path); err != nil {
			t.Fatalf("replay: %v", err)
		}
		if got, want := restarted.NumTables(), orig.NumTables(); got != want {
			t.Fatalf("replayed corpus has %d tables, original %d", got, want)
		}
		if got, want := restarted.IndexEpoch(), orig.IndexEpoch(); got != want {
			t.Fatalf("replayed epoch %d, original %d", got, want)
		}
		for qi, q := range queries {
			want, _ := orig.SearchStats(q, 10)
			got, _ := restarted.SearchStats(q, 10)
			if len(got) != len(want) {
				t.Fatalf("q%d: replay returned %d results, original %d", qi, len(got), len(want))
			}
			for i := range want {
				if got[i].Table != want[i].Table || got[i].Score != want[i].Score {
					t.Fatalf("q%d rank %d: replay %+v, original %+v", qi, i, got[i], want[i])
				}
			}
		}
		cfg := liveConfig{agg: AggregateMax, votes: 2, lsh: true, keyword: true}
		if err := assertLiveEquivalence(restarted, buildLiveReference(st, cfg), st, cfg, queries, 10); err != nil {
			t.Fatalf("replayed system diverges from a from-scratch build: %v", err)
		}

		// The restarted process can keep mutating: appends resume at the
		// next sequence number, and a third process replays the longer
		// log.
		extra := restarted.AddTable(tables[len(tables)-1])
		if err := restarted.RemoveTable(extra); err != nil {
			t.Fatalf("post-replay mutation: %v", err)
		}
		if err := restarted.DeltaLogError(); err != nil {
			t.Fatalf("resumed log went sticky-bad: %v", err)
		}
		if err := restarted.CloseDeltaLog(); err != nil {
			t.Fatalf("close resumed log: %v", err)
		}
		third, _ := newLiveBase(baseN)
		if err := third.AttachDeltaLog(path); err != nil {
			t.Fatalf("second replay: %v", err)
		}
		if got, want := third.NumTables(), restarted.NumTables(); got != want {
			t.Fatalf("second replay has %d tables, want %d", got, want)
		}
	})
}

// TestFaultDeltaLogSyncFailureSurfaces: a failed fsync must not stay a
// shutdown-time log line. The mutation that hit it still applies
// (availability), but DeltaLogError and thetis_delta_log_failed report it at
// once — and reading them must not wait on the maintenance lock, which an
// index build may hold for seconds. (The /readyz half of the contract is
// deltalog_readyz_test.go.)
func TestFaultDeltaLogSyncFailureSurfaces(t *testing.T) {
	_, tables, _ := batteryEnv(t)
	sys, _ := newLiveBase(20)
	if err := sys.AttachDeltaLog(filepath.Join(t.TempDir(), "deltas.log")); err != nil {
		t.Fatal(err)
	}
	gauge := obs.DeltaLogFailed(nil)

	sys.AddTable(tables[20])
	if err := sys.DeltaLogError(); err != nil || gauge.Value() != 0 {
		t.Fatalf("healthy log reports err=%v gauge=%v", err, gauge.Value())
	}
	sys.FailDeltaLogSyncs()
	id := sys.AddTable(tables[21])
	if sys.Table(id) == nil {
		t.Fatal("the mutation whose log record failed to sync was not applied")
	}
	release := sys.HoldMaintenance()
	err := sys.DeltaLogError()
	release()
	if !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("DeltaLogError = %v, want the injected sync failure", err)
	}
	if gauge.Value() != 1 {
		t.Fatalf("thetis_delta_log_failed = %v after a failed sync, want 1", gauge.Value())
	}
	if err := sys.CloseDeltaLog(); err != nil {
		t.Fatal(err)
	}
	if sys.DeltaLogError() != nil || gauge.Value() != 0 {
		t.Fatal("detaching the failed log must clear the error and the gauge")
	}
}

func TestLiveDeltaLogCorruption(t *testing.T) {
	_, tables, _ := batteryEnv(t)
	const baseN = 60
	dir := t.TempDir()
	path := filepath.Join(dir, "deltas.log")

	orig, st := newLiveBase(baseN)
	if err := orig.AttachDeltaLog(path); err != nil {
		t.Fatalf("attach: %v", err)
	}
	ops := genLiveOps(5, 12, baseN, baseN, baseN+20)
	for i, op := range ops {
		if err := st.apply(orig, op, tables); err != nil {
			t.Fatalf("op %d (%s): %v", i, op, err)
		}
	}
	if err := orig.CloseDeltaLog(); err != nil {
		t.Fatalf("close: %v", err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	attach := func(t *testing.T, data []byte, baseTables int) error {
		t.Helper()
		p := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "-")+".log")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sys, _ := newLiveBase(baseTables)
		return sys.AttachDeltaLog(p)
	}
	mustCorrupt := func(t *testing.T, err error) {
		t.Helper()
		if err == nil {
			t.Fatal("damaged delta log replayed without error")
		}
		if !errors.Is(err, atomicio.ErrCorruptSnapshot) {
			t.Fatalf("damage surfaced as %v, want ErrCorruptSnapshot", err)
		}
	}

	t.Run("clean-replays", func(t *testing.T) {
		if err := attach(t, clean, baseN); err != nil {
			t.Fatalf("pristine copy failed to replay: %v", err)
		}
	})
	t.Run("flipped-header-byte", func(t *testing.T) {
		data := append([]byte(nil), clean...)
		data[3] ^= 0x40
		mustCorrupt(t, attach(t, data, baseN))
	})
	t.Run("flipped-payload-byte", func(t *testing.T) {
		data := append([]byte(nil), clean...)
		data[len(data)/2] ^= 0x01
		mustCorrupt(t, attach(t, data, baseN))
	})
	t.Run("truncated-mid-record", func(t *testing.T) {
		mustCorrupt(t, attach(t, clean[:len(clean)-3], baseN))
	})
	t.Run("appended-garbage-record", func(t *testing.T) {
		// Duplicating the trailing bytes of the log past a clean EOF breaks
		// either sequence continuity or a CRC; replay must refuse rather
		// than apply a phantom record.
		garbled := append(append([]byte(nil), clean...), clean[len(clean)-21:]...)
		mustCorrupt(t, attach(t, garbled, baseN))
	})
	t.Run("wrong-base-snapshot", func(t *testing.T) {
		mustCorrupt(t, attach(t, clean, baseN-5))
	})
	t.Run("remove-of-dead-id", func(t *testing.T) {
		// A structurally intact log whose remove targets an ID that is not
		// live in THIS base (the operator paired the log with the wrong
		// snapshot generation) must be refused as corruption.
		src, _ := newLiveBase(baseN)
		p := filepath.Join(dir, "deadremove.log")
		if err := src.AttachDeltaLog(p); err != nil {
			t.Fatal(err)
		}
		if err := src.RemoveTable(TableID(baseN - 1)); err != nil {
			t.Fatal(err)
		}
		if err := src.CloseDeltaLog(); err != nil {
			t.Fatal(err)
		}
		victim, _ := newLiveBase(baseN)
		if err := victim.RemoveTable(TableID(baseN - 1)); err != nil {
			t.Fatal(err)
		}
		mustCorrupt(t, victim.AttachDeltaLog(p))
	})
}

func TestLiveDoubleAttachRefused(t *testing.T) {
	batteryEnv(t)
	sys, _ := newLiveBase(10)
	dir := t.TempDir()
	if err := sys.AttachDeltaLog(filepath.Join(dir, "a.log")); err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachDeltaLog(filepath.Join(dir, "b.log")); err == nil {
		t.Fatal("second AttachDeltaLog succeeded; must be refused")
	}
	if err := sys.CloseDeltaLog(); err != nil {
		t.Fatal(err)
	}
	// After a detach, a fresh attach is allowed again.
	if err := sys.AttachDeltaLog(filepath.Join(dir, "c.log")); err != nil {
		t.Fatalf("re-attach after close: %v", err)
	}
	if err := sys.CloseDeltaLog(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveLabelIndexFollowsIngest: a URI first seen by AddTableJSON is
// interned under the write lock, and the graph's label index answers for it
// on the very next ParseQuery — there is no rebuild step to call — while
// other goroutines resolve queries throughout (`make race`).
func TestLiveLabelIndexFollowsIngest(t *testing.T) {
	g := NewGraph()
	if err := LoadTriples(g, strings.NewReader(ingestKG)); err != nil {
		t.Fatal(err)
	}
	sys := New(g)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if q, err := sys.ParseQuery("ron santo | res/Chicago_Cubs"); err != nil || len(q[0]) != 2 {
					t.Errorf("reader: ParseQuery = %v, %v", q, err)
					return
				}
			}
		}()
	}
	defer wg.Wait()
	defer close(done)

	for i := 0; i < 50; i++ {
		uri := fmt.Sprintf("res/Fresh_%d", i)
		mention := "  " + strings.ToUpper(uri) + " "
		if q, err := sys.ParseQuery(mention); err == nil {
			t.Fatalf("%q resolved to %v before its table was added", mention, q)
		}
		body := fmt.Sprintf(`{"name":"fresh%d","attributes":["Player"],"rows":[[{"v":"x","e":"%s"}]]}`, i, uri)
		if _, err := sys.AddTableJSON([]byte(body)); err != nil {
			t.Fatal(err)
		}
		want, ok := g.Lookup(uri)
		if !ok {
			t.Fatalf("AddTableJSON did not intern %s", uri)
		}
		q, err := sys.ParseQuery(mention)
		if err != nil || len(q) != 1 || len(q[0]) != 1 || q[0][0] != want {
			t.Fatalf("ParseQuery(%q) = %v, %v right after AddTableJSON; want entity %d", mention, q, err, want)
		}
	}
}
