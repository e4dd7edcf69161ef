package thetis

import (
	"fmt"
	"strings"
	"testing"

	"thetis/internal/core"
	"thetis/internal/kg"
	"thetis/internal/reference"
)

// TestLiveLateEntityKeyGroups: under type σ a table added through
// AddTableJSON after UseTypeSimilarity may intern a new entity, which the
// σ keys as untyped (key 0). A search for it reads its own cells as 1 (the
// identity correction), elsewhere as 0, and ranks like the oracle over the
// live tables; RemoveTable then drops the table's memoized key groups.
func TestLiveLateEntityKeyGroups(t *testing.T) {
	g := NewGraph()
	if err := LoadTriples(g, strings.NewReader(ingestKG)); err != nil {
		t.Fatal(err)
	}
	sys := New(g)
	row := func(v, e string) string { return fmt.Sprintf(`{"v":%q,"e":%q}`, v, e) }
	addJSON := func(name string, rows ...[2]string) TableID {
		t.Helper()
		var rs []string
		for _, r := range rows {
			rs = append(rs, "["+row(r[0], r[0])+","+row(r[1], r[1])+"]")
		}
		id, err := sys.AddTableJSON([]byte(fmt.Sprintf(`{"name":%q,"attributes":["Player","Team"],"rows":[%s]}`, name, strings.Join(rs, ","))))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	addJSON("cubs", [2]string{"res/Ron_Santo", "res/Chicago_Cubs"}, [2]string{"res/Mitch_Stetter", "res/Chicago_Cubs"})
	addJSON("brewers", [2]string{"res/Mitch_Stetter", "res/Milwaukee_Brewers"})
	sys.UseTypeSimilarity()
	fresh := addJSON("fresh", [2]string{"res/Fresh_Player", "res/Chicago_Cubs"}, [2]string{"res/Ron_Santo", "res/Milwaukee_Brewers"})
	other := addJSON("other", [2]string{"res/Vera_Volley", "res/Chicago_Cubs"})
	fe, ok := g.Lookup("res/Fresh_Player")
	if !ok || sys.tj.SetID(fe) >= 0 {
		t.Fatal("fixture: the fresh entity must be interned after the σ, without types")
	}

	q, err := sys.ParseQuery("res/Fresh_Player | res/Chicago_Cubs")
	if err != nil {
		t.Fatal(err)
	}
	var tables []*Table
	for id := range sys.lake.NumSlots() {
		tables = append(tables, sys.Table(TableID(id)))
	}
	ref := reference.New(g, tables, core.NewTypeJaccard(g))
	got := sys.Search(q, -1)
	if err := ref.Agree(got, ref.Search(q, -1), -1); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].Table != fresh {
		t.Fatalf("ranking %v: want the fresh entity's own table %d first", got, fresh)
	}
	one, err := sys.ParseQuery("res/Fresh_Player")
	if err != nil {
		t.Fatal(err)
	}
	if r := sys.Search(one, -1); len(r) != 1 || r[0].Table != fresh || r[0].Score != 1 {
		t.Fatalf("the fresh entity alone ranks %v, want only table %d at 1", r, fresh)
	}

	// The searches above built every table's key groups under the σ.
	rebuilt := func(id TableID) bool {
		var called bool
		sys.lake.KeyGroups(id, core.Similarity(sys.tj), func(kg.EntityID) uint32 { called = true; return 0 })
		return called
	}
	if rebuilt(fresh) || rebuilt(other) {
		t.Fatal("a search left no key groups on the lake")
	}
	if err := sys.RemoveTable(fresh); err != nil {
		t.Fatal(err)
	}
	if g := sys.lake.KeyGroups(fresh, core.Similarity(sys.tj), nil); g != nil {
		t.Fatalf("RemoveTable kept the table's key groups %+v", g)
	}
	if r := sys.Search(one, -1); len(r) != 0 {
		t.Fatalf("after RemoveTable the fresh entity ranks %v", r)
	}
}
