package core

import (
	"fmt"
	"maps"
	"testing"

	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/table"
)

// TestFrequentTypeThresholdIsStrict pins Section 6.1's "more than half":
// a type in exactly half of the tables stays in the signatures, one in
// half + 1 is dropped, and a type whose count sits exactly on the moving
// limit after AddTable/RemoveTable is not frequent either.
func TestFrequentTypeThresholdIsStrict(t *testing.T) {
	g := kg.NewGraph()
	half, over := g.AddType("Half", ""), g.AddType("Over", "")
	entity := func(uri string, ty kg.TypeID) kg.EntityID {
		e := g.AddEntity(uri, uri)
		g.AssignType(e, ty)
		return e
	}
	h, o := entity("h", half), entity("o", over)
	x := g.AddEntity("x", "x") // untyped: its tables count toward the total only
	mk := func(name string, ents ...kg.EntityID) *table.Table {
		tb := table.New(name, []string{"A"})
		for _, e := range ents {
			tb.AppendRow([]table.Cell{table.LinkedCell(g.Label(e), e)})
		}
		return tb
	}
	l := lake.New(g)
	// Four tables: Half in 2 (exactly half), Over in 3 (half + 1).
	l.Add(mk("t0", h, o))
	l.Add(mk("t1", h, o, h))
	l.Add(mk("t2", o, x, o))
	l.Add(mk("t3", x))
	tj := NewTypeJaccard(g)
	fs := NewTypeFilterState(l, tj, 0.5)
	check := func(step string, want ...kg.TypeID) {
		t.Helper()
		wantSet := map[kg.TypeID]bool{}
		for _, ty := range want {
			wantSet[ty] = true
		}
		if got := fs.Filter(); !maps.Equal(got, wantSet) {
			t.Fatalf("%s (%d tables): filter %v, want %v", step, l.NumTables(), names(g, got), names(g, wantSet))
		}
		if fresh := FrequentTypesOver(l, tj, 0.5); !maps.Equal(fresh, wantSet) {
			t.Fatalf("%s: FrequentTypesOver %v, want %v", step, names(g, fresh), names(g, wantSet))
		}
	}
	check("built", over)

	// A fifth table without either type: limit 2.5, Half 2, Over 3.
	t4 := mk("t4", x)
	fs.AddTable(t4, nil)
	id4 := l.Add(t4)
	check("add t4", over)

	// A sixth table with Half: limit 3, and both Half and Over sit on it.
	t5 := mk("t5", h)
	fs.AddTable(t5, nil)
	l.Add(t5)
	check("add t5")

	// Removing t4 takes the limit to 2.5 under both.
	l.Remove(id4)
	fs.RemoveTable(t4, nil)
	check("remove t4", half, over)
}

func names(g *kg.Graph, set map[kg.TypeID]bool) string {
	var out []string
	for ty := range set {
		out = append(out, g.TypeURI(ty))
	}
	return fmt.Sprint(out)
}
