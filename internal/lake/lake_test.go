package lake

import (
	"testing"

	"thetis/internal/kg"
	"thetis/internal/table"
)

func buildLake(t *testing.T) (*Lake, *kg.Graph) {
	t.Helper()
	g := kg.NewGraph()
	santo := g.AddEntity("dbr:Ron_Santo", "Ron Santo")
	cubs := g.AddEntity("dbr:Chicago_Cubs", "Chicago Cubs")
	brewers := g.AddEntity("dbr:Milwaukee_Brewers", "Milwaukee Brewers")

	l := New(g)

	t1 := table.New("t1", []string{"Player", "Team"})
	t1.AppendRow([]table.Cell{table.LinkedCell("Ron Santo", santo), table.LinkedCell("Chicago Cubs", cubs)})
	l.Add(t1)

	t2 := table.New("t2", []string{"Team", "City"})
	t2.AppendRow([]table.Cell{table.LinkedCell("Chicago Cubs", cubs), {Value: "Chicago"}})
	t2.AppendRow([]table.Cell{table.LinkedCell("Milwaukee Brewers", brewers), {Value: "Milwaukee"}})
	l.Add(t2)

	return l, g
}

func TestLakeAddAndLookup(t *testing.T) {
	l, g := buildLake(t)
	if l.NumTables() != 2 {
		t.Fatalf("NumTables = %d", l.NumTables())
	}
	if l.Table(0).Name != "t1" || l.Table(1).Name != "t2" {
		t.Error("table IDs not dense/ordered")
	}
	cubs, _ := g.Lookup("dbr:Chicago_Cubs")
	posts := l.TablesWith(cubs)
	if len(posts) != 2 || posts[0] != 0 || posts[1] != 1 {
		t.Errorf("postings for cubs = %v, want [0 1]", posts)
	}
	santo, _ := g.Lookup("dbr:Ron_Santo")
	if f := l.EntityFrequency(santo); f != 1 {
		t.Errorf("freq(santo) = %d, want 1", f)
	}
	if f := l.EntityFrequency(cubs); f != 2 {
		t.Errorf("freq(cubs) = %d, want 2", f)
	}
	if n := len(l.DistinctEntities()); n != 3 {
		t.Errorf("distinct entities = %d, want 3", n)
	}
}

func TestLakeUnknownEntity(t *testing.T) {
	l, g := buildLake(t)
	stranger := g.AddEntity("dbr:Stranger", "")
	if posts := l.TablesWith(stranger); len(posts) != 0 {
		t.Errorf("postings for unseen entity = %v", posts)
	}
	if l.EntityFrequency(stranger) != 0 {
		t.Error("frequency for unseen entity should be 0")
	}
}

func TestComputeStats(t *testing.T) {
	l, _ := buildLake(t)
	s := l.ComputeStats()
	if s.Tables != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MeanRows != 1.5 {
		t.Errorf("MeanRows = %v, want 1.5", s.MeanRows)
	}
	if s.MeanColumns != 2 {
		t.Errorf("MeanColumns = %v, want 2", s.MeanColumns)
	}
	// t1 coverage = 1.0, t2 coverage = 0.5 -> mean 0.75
	if s.MeanCoverage != 0.75 {
		t.Errorf("MeanCoverage = %v, want 0.75", s.MeanCoverage)
	}
	if s.DistinctEntities != 3 {
		t.Errorf("DistinctEntities = %d, want 3", s.DistinctEntities)
	}
	if s.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := New(kg.NewGraph()).ComputeStats()
	if s.Tables != 0 || s.MeanRows != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestEntityCountedOncePerTable(t *testing.T) {
	g := kg.NewGraph()
	e := g.AddEntity("dbr:E", "E")
	l := New(g)
	tb := table.New("dup", []string{"a", "b"})
	tb.AppendRow([]table.Cell{table.LinkedCell("E", e), table.LinkedCell("E", e)})
	tb.AppendRow([]table.Cell{table.LinkedCell("E", e), {Value: "x"}})
	l.Add(tb)
	if f := l.EntityFrequency(e); f != 1 {
		t.Errorf("entity mentioned 3x in one table has frequency %d, want 1", f)
	}
	if posts := l.TablesWith(e); len(posts) != 1 {
		t.Errorf("postings = %v, want one entry", posts)
	}
}

// TestDensePostingsAfterMutation drives the entity-indexed posting lists
// through interleaved Add/Remove calls — an entity ID far above every
// earlier one, lists emptied and released, a table re-added over emptied
// lists — and checks every read against a recount over the live tables.
func TestDensePostingsAfterMutation(t *testing.T) {
	const far = kg.EntityID(5000)
	mk := func(name string, ents ...kg.EntityID) *table.Table {
		tb := table.New(name, []string{"a", "b"})
		for i := 0; i < len(ents); i += 2 {
			row := []table.Cell{table.LinkedCell("x", ents[i]), {Value: "y"}}
			if i+1 < len(ents) {
				row[1] = table.LinkedCell("y", ents[i+1])
			}
			tb.AppendRow(row)
		}
		return tb
	}
	l := New(kg.NewGraph())
	t0 := mk("t0", 1, 2, 3)
	t1 := mk("t1", 2, 3, 4, 2)
	t2 := mk("t2", 7, far)
	check := func(step string) {
		t.Helper()
		want := map[kg.EntityID][]TableID{}
		for id, tb := range l.Tables() {
			if tb == nil {
				continue
			}
			for _, e := range tb.Entities() {
				want[e] = append(want[e], TableID(id))
			}
		}
		for e := kg.EntityID(0); e <= far+2; e++ {
			got := l.TablesWith(e)
			if len(got) != len(want[e]) || l.EntityFrequency(e) != len(got) {
				t.Fatalf("%s: entity %d: TablesWith %v, frequency %d, want tables %v", step, e, got, l.EntityFrequency(e), want[e])
			}
			for i := range got {
				if got[i] != want[e][i] {
					t.Fatalf("%s: entity %d: TablesWith %v, want %v", step, e, got, want[e])
				}
			}
		}
		if got := l.TablesWith(far + 1_000_000); got != nil {
			t.Fatalf("%s: out-of-range entity has postings %v", step, got)
		}
		ents := l.DistinctEntities()
		if len(ents) != len(want) {
			t.Fatalf("%s: DistinctEntities = %v, want the %d entities with tables", step, ents, len(want))
		}
		for i, e := range ents {
			if i > 0 && ents[i-1] >= e {
				t.Fatalf("%s: DistinctEntities not ascending: %v", step, ents)
			}
			if len(want[e]) == 0 {
				t.Fatalf("%s: DistinctEntities lists %d, which no live table mentions", step, e)
			}
		}
		if s := l.ComputeStats(); s.DistinctEntities != len(ents) {
			t.Fatalf("%s: ComputeStats().DistinctEntities = %d, want %d", step, s.DistinctEntities, len(ents))
		}
	}

	check("empty")
	id0 := l.Add(t0)
	check("add t0")
	id1 := l.Add(t1)
	check("add t1")
	id2 := l.Add(t2)
	check("add t2 (far entity)")
	l.Remove(id1)
	check("remove t1")
	l.Remove(id0)
	check("remove t0 (lists of 1, 2, 3 emptied)")
	if l.TablesWith(2) != nil {
		t.Fatal("an emptied posting list must be released to nil")
	}
	l.Add(t0)
	check("re-add t0 over emptied lists")
	l.Remove(id2)
	check("remove t2 (far entity emptied)")
	l.Add(t2)
	check("re-add t2")
	if l.Remove(id2) || l.Remove(id0) {
		t.Fatal("removing a tombstoned ID reported success")
	}
	check("double removes")
}

func TestColumnIndexMemoized(t *testing.T) {
	l, _ := buildLake(t)
	ci1 := l.ColumnIndex(0)
	ci2 := l.ColumnIndex(0)
	if ci1 == nil || ci1 != ci2 {
		t.Fatal("ColumnIndex must return one memoized index per table")
	}
	if ci1 == l.ColumnIndex(1) {
		t.Fatal("tables must not share a column index")
	}
	// The index reflects the table's annotations: t1 has one linked entity
	// per column.
	if len(ci1.Cols) != 2 || ci1.Cols[0].Linked != 1 || len(ci1.Cols[0].Entities) != 1 {
		t.Fatalf("t1 index = %+v", ci1)
	}
}

func TestColumnIndexConcurrentFirstUse(t *testing.T) {
	l, _ := buildLake(t)
	results := make(chan *table.ColumnIndex, 8)
	for i := 0; i < 8; i++ {
		go func() { results <- l.ColumnIndex(1) }()
	}
	for i := 0; i < 8; i++ {
		ci := <-results
		if ci == nil || len(ci.Cols) != 2 {
			t.Fatalf("concurrent first build returned %+v", ci)
		}
	}
}

// TestKeyGroupsMemoizedPerTag: a table's key groups are built once per
// keying tag and served from the memo after; another tag rebuilds them;
// Remove drops them, and an unknown ID has none.
func TestKeyGroupsMemoizedPerTag(t *testing.T) {
	l, _ := buildLake(t)
	builds := 0
	counting := func(tag uint32) func(kg.EntityID) uint32 {
		return func(kg.EntityID) uint32 { builds++; return tag }
	}
	a, b := new(int), new(int) // two keyings' tags
	g := l.KeyGroups(1, a, counting(7))
	if g == nil || g.NumRows != 2 || g.NumColumns() != 2 || len(g.Keys) != 1 || g.Keys[0] != 7 || g.Counts[0] != 2 {
		t.Fatalf("t2 groups = %+v", g)
	}
	if again := l.KeyGroups(1, a, counting(7)); again != g || builds != 2 {
		t.Fatalf("second read under the same tag rebuilt the groups (%d key calls)", builds)
	}
	if other := l.KeyGroups(1, b, counting(9)); other == g || other.Keys[0] != 9 {
		t.Fatalf("another tag served %+v", other)
	}
	if !l.Remove(1) {
		t.Fatal("remove failed")
	}
	if g := l.KeyGroups(1, b, counting(9)); g != nil {
		t.Fatalf("removed table keeps groups %+v", g)
	}
	if g := l.KeyGroups(99, a, nil); g != nil {
		t.Fatalf("unknown table has groups %+v", g)
	}
}
