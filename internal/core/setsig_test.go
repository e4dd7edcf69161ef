package core_test

import (
	"context"
	"maps"
	"slices"
	"testing"

	"thetis/internal/core"
	"thetis/internal/datagen"
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/lsh"
	"thetis/internal/obs"
	"thetis/internal/table"
)

// perEntityReference is the type LSEI signed entity by entity, as Section
// 6.1 states it: every lake entity gets MinHasher.Signature of the
// type-pair shingles of its expanded types minus the filtered ones.
type perEntityReference struct {
	index *lsh.Index
	sign  func(kg.EntityID) []uint32
}

func newPerEntityReference(l *lake.Lake, tj *core.TypeJaccard, cfg core.LSEIConfig, filter map[kg.TypeID]bool) perEntityReference {
	mh := lsh.NewMinHasher(cfg.Vectors, cfg.Seed)
	r := perEntityReference{index: lsh.NewIndex(cfg.Vectors, cfg.BandSize)}
	r.sign = func(e kg.EntityID) []uint32 {
		var kept []uint32
		for _, ty := range tj.TypeSet(e) {
			if !filter[ty] {
				kept = append(kept, uint32(ty))
			}
		}
		if len(kept) == 0 {
			return nil
		}
		return mh.Signature(lsh.TypePairShingles(kept))
	}
	for _, e := range l.DistinctEntities() {
		if sig := r.sign(e); sig != nil {
			r.index.Insert(uint32(e), sig)
		}
	}
	return r
}

// sortedBuckets copies buckets with each one's items sorted, so two indexes
// holding the same item sets in another insertion order compare equal.
func sortedBuckets(buckets [][]uint32) [][]uint32 {
	out := make([][]uint32, len(buckets))
	for i, b := range buckets {
		out[i] = slices.Clone(b)
		slices.Sort(out[i])
	}
	return out
}

// assertMatchesPerEntity checks x against a per-entity reference built over
// l under the filter a from-scratch build would use: for every lake entity
// and every query entity x probes with the reference's signature, and that
// signature meets the same item sets in both indexes; the item and bucket
// counts agree. (Equal item sets alone would pass an index that kept a
// whole set under a stale signature: its bucket holds the same entities.)
func assertMatchesPerEntity(t *testing.T, step string, x *core.LSEI, cfg core.LSEIConfig, l *lake.Lake, tj *core.TypeJaccard, queryEnts []kg.EntityID) {
	t.Helper()
	filter := core.FrequentTypesOver(l, tj, cfg.FrequentTypeThreshold)
	if !maps.Equal(x.TypeFilter(), filter) {
		t.Fatalf("%s: index filter %v, from-scratch filter %v", step, x.TypeFilter(), filter)
	}
	ref := newPerEntityReference(l, tj, cfg, filter)
	if got, want := x.NumItems(), ref.index.NumItems(); got != want {
		t.Fatalf("%s: NumItems %d, per-entity reference %d", step, got, want)
	}
	if got, want := x.NumBuckets(), ref.index.NumBuckets(); got != want {
		t.Fatalf("%s: NumBuckets %d, per-entity reference %d", step, got, want)
	}
	for _, e := range append(l.DistinctEntities(), queryEnts...) {
		sig := ref.sign(e)
		if got := x.EntitySignature(e); !slices.Equal(got, sig) {
			t.Fatalf("%s: entity %d probes with signature %v, per-entity reference %v", step, e, got, sig)
		}
		if sig == nil {
			continue
		}
		want := ref.index.Buckets(context.Background(), sig, nil)
		if got := x.BucketsOf(sig); !slices.EqualFunc(sortedBuckets(got), sortedBuckets(want), slices.Equal) {
			t.Fatalf("%s: entity %d meets buckets %v, per-entity reference %v", step, e, got, want)
		}
	}
}

// liveTypeIndex applies corpus mutations the way thetis.System does: the
// filter state counts an added table before the lake and index take it, and
// a removed one after the index has shed it.
type liveTypeIndex struct {
	l  *lake.Lake
	fs *core.TypeFilterState
	x  *core.LSEI
}

func (s *liveTypeIndex) add(t *table.Table) lake.TableID {
	s.fs.AddTable(t, s.x)
	id := s.l.Add(t)
	s.x.AddTable(id)
	return id
}

func (s *liveTypeIndex) remove(id lake.TableID) {
	t := s.l.Table(id)
	s.l.Remove(id)
	s.x.RemoveTable(t)
	s.fs.RemoveTable(t, s.x)
}

// TestSetSignaturesMatchPerEntityReference checks the type LSEI, which signs
// each interned type set once, against the index that signs every entity
// directly: at build, after live mutations that flip the frequent-type
// filter both ways, after a compaction rebuild, and after more mutations of
// the rebuilt index.
func TestSetSignaturesMatchPerEntityReference(t *testing.T) {
	k := datagen.GenerateKG(datagen.KGConfig{
		Domains: 5, LeafTypesPerDomain: 2, MembersPerLeafType: 40,
		GroupsPerDomain: 6, Places: 25, EdgesPerMember: 2, Seed: 17,
	})
	corpus := datagen.GenerateCorpus(k, datagen.ProfileWT2015(300))
	var queryEnts []kg.EntityID
	for _, bq := range datagen.GenerateQueries(k, datagen.QueryConfig{Count: 4, TuplesPerQuery: 5, Width: 3, Seed: 17}) {
		queryEnts = append(queryEnts, bq.Query.DistinctEntities()...)
	}
	tj := core.NewTypeJaccard(k.Graph)
	cfg := core.DefaultLSEIConfig()
	const baseN = 200
	l := lake.New(k.Graph)
	for _, tb := range corpus.Tables()[:baseN] {
		l.Add(tb)
	}
	fs := core.NewTypeFilterState(l, tj, cfg.FrequentTypeThreshold)
	s := &liveTypeIndex{l: l, fs: fs, x: core.BuildTypeLSEIFiltered(l, tj, cfg, fs.Filter())}
	assertMatchesPerEntity(t, "build", s.x, cfg, l, tj, queryEnts)

	// The least frequent filtered type: remove its tables until it leaves
	// the filter, then add them back until it returns.
	has := func(tb *table.Table, ty kg.TypeID) bool {
		for _, e := range tb.Entities() {
			if slices.Contains(tj.TypeSet(e), ty) {
				return true
			}
		}
		return false
	}
	tables := func(ty kg.TypeID) []lake.TableID {
		var out []lake.TableID
		for _, id := range l.LiveTableIDs() {
			if has(l.Table(id), ty) {
				out = append(out, id)
			}
		}
		return out
	}
	target, fewest := kg.TypeID(0), -1
	for ty := range fs.Filter() {
		if n := len(tables(ty)); fewest < 0 || n < fewest {
			target, fewest = ty, n
		}
	}
	if fewest < 0 {
		t.Fatal("the base lake filters no type: no flip to test")
	}
	flipOut := func() (removed []*table.Table) {
		for _, id := range tables(target) {
			if !s.fs.Filter()[target] {
				break
			}
			removed = append(removed, l.Table(id))
			s.remove(id)
		}
		if s.fs.Filter()[target] {
			t.Fatalf("type %d still filtered after removing all its tables", target)
		}
		return removed
	}
	resigns := obs.IndexFilterResignsTotal(nil)
	before := resigns.Value()
	removed := flipOut()
	assertMatchesPerEntity(t, "flipped out", s.x, cfg, l, tj, queryEnts)
	for _, tb := range removed {
		s.add(tb)
	}
	if !fs.Filter()[target] {
		t.Fatalf("type %d not filtered again after re-adding its tables", target)
	}
	for _, tb := range corpus.Tables()[baseN : baseN+20] {
		s.add(tb)
	}
	if resigns.Value() == before {
		t.Fatal("the filter flips re-signed nothing (thetis_index_filter_resigns_total did not move)")
	}
	t.Logf("type %d (in %d of %d base tables) flipped out and back: %d items re-signed",
		target, fewest, baseN, resigns.Value()-before)
	assertMatchesPerEntity(t, "flipped back", s.x, cfg, l, tj, queryEnts)

	// Compaction: a rebuild under the filter the state keeps current.
	s.x = core.BuildTypeLSEIFiltered(l, tj, cfg, fs.Filter())
	assertMatchesPerEntity(t, "compacted", s.x, cfg, l, tj, queryEnts)

	// Live again on the rebuilt index.
	before = resigns.Value()
	flipOut()
	for _, tb := range corpus.Tables()[baseN+20:] {
		s.add(tb)
	}
	if resigns.Value() == before {
		t.Fatal("no filter flip after the compaction: the rebuilt signature table is not exercised")
	}
	assertMatchesPerEntity(t, "compacted, then mutated", s.x, cfg, l, tj, queryEnts)
}
