package table

import (
	"slices"
	"testing"

	"thetis/internal/kg"
)

func TestBuildColumnIndex(t *testing.T) {
	tb := New("t", []string{"a", "b"})
	tb.AppendRow([]Cell{LinkedCell("x", 7), {Value: "-"}})
	tb.AppendRow([]Cell{LinkedCell("y", 3), LinkedCell("z", 7)})
	tb.AppendRow([]Cell{LinkedCell("x", 7), {Value: "-"}})
	ci := BuildColumnIndex(tb)
	if ci.NumRows != 3 || ci.NumColumns() != 2 {
		t.Fatalf("%d rows, %d columns, want 3 and 2", ci.NumRows, ci.NumColumns())
	}
	// Distinct entities in first-occurrence order, with multiplicities.
	want := []struct {
		keys   []uint32
		counts []int32
	}{
		{[]uint32{7, 3}, []int32{2, 1}},
		{[]uint32{7}, []int32{1}},
	}
	for j, w := range want {
		lo, hi := ci.Offsets[j], ci.Offsets[j+1]
		if !slices.Equal(ci.Keys[lo:hi], w.keys) || !slices.Equal(ci.Counts[lo:hi], w.counts) {
			t.Fatalf("col %d: entities %v counts %v, want %v %v", j, ci.Keys[lo:hi], ci.Counts[lo:hi], w.keys, w.counts)
		}
	}
}

func TestBuildColumnIndexEmptyTable(t *testing.T) {
	ci := BuildColumnIndex(New("empty", []string{"a"}))
	if ci.NumColumns() != 1 || len(ci.Keys) != 0 || ci.Offsets[1] != 0 {
		t.Fatalf("empty table index = %+v", ci)
	}
}

func TestBuildKeyGroups(t *testing.T) {
	tb := New("t", []string{"a", "b", "c"})
	tb.AppendRow([]Cell{LinkedCell("x", 7), {Value: "-"}, LinkedCell("y", 3)})
	tb.AppendRow([]Cell{LinkedCell("y", 3), LinkedCell("z", 7), LinkedCell("u", 4)})
	tb.AppendRow([]Cell{LinkedCell("x", 5), {Value: "-"}, LinkedCell("v", 6)})
	tb.AppendRow([]Cell{LinkedCell("w", 4), {Value: "-"}, {Value: "-"}})
	// Odd entities share key 1, even ones key 0.
	g := BuildKeyGroups(tb, func(e kg.EntityID) uint32 { return uint32(e % 2) })
	if g.NumRows != 4 || g.NumColumns() != 3 {
		t.Fatalf("%d rows, %d columns, want 4 and 3", g.NumRows, g.NumColumns())
	}
	want := []struct {
		keys   []uint32
		counts []int32
	}{
		{[]uint32{1, 0}, []int32{3, 1}}, // 7, 3, 5 share key 1; 4 is first met in row 4
		{[]uint32{1}, []int32{1}},
		{[]uint32{1, 0}, []int32{1, 2}},
	}
	for j, w := range want {
		lo, hi := g.Offsets[j], g.Offsets[j+1]
		if !slices.Equal(g.Keys[lo:hi], w.keys) || !slices.Equal(g.Counts[lo:hi], w.counts) {
			t.Fatalf("column %d: keys %v counts %v, want %v %v", j, g.Keys[lo:hi], g.Counts[lo:hi], w.keys, w.counts)
		}
	}
	if e := BuildKeyGroups(New("empty", []string{"a"}), nil); e.NumRows != 0 || e.NumColumns() != 1 || len(e.Keys) != 0 {
		t.Fatalf("empty table groups = %+v", e)
	}
}
