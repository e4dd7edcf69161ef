package table

import (
	"slices"

	"thetis/internal/kg"
)

// KeyGroups summarizes a table's columns under a keying of its entities: a
// map from entity to a key space, such as the interned type set that type σ
// reads a non-identical entity through, or the entity itself (EntityKey).
// Per column it holds the distinct keys of the column's linked cells, in
// first-occurrence row order, and, parallel to them, how many cells carry
// each key, so a fold whose value depends on an entity only through its key
// reads one group per key instead of one per cell. The whole table lives in
// three flat slices.
//
// KeyGroups is immutable after construction and safe for concurrent
// readers. It snapshots the table at build time; like a lake's posting
// lists, it does not see rows or links added afterwards.
type KeyGroups struct {
	// NumRows is the table's row count.
	NumRows int
	// Offsets has one entry per column plus one: column j's groups are
	// Keys[Offsets[j]:Offsets[j+1]] and Counts[Offsets[j]:Offsets[j+1]].
	Offsets []int32
	// Keys are the groups' keys.
	Keys []uint32
	// Counts[i] is the number of cells whose entity has key Keys[i] in the
	// group's column.
	Counts []int32
}

// NumColumns returns the table's column count.
func (g *KeyGroups) NumColumns() int { return len(g.Offsets) - 1 }

// EntityKey keys an entity by its own ID: its groups are a column's
// distinct entities.
func EntityKey(e kg.EntityID) uint32 { return uint32(e) }

// BuildColumnIndex scans t once and groups each column's linked cells by
// entity: BuildKeyGroups under EntityKey.
func BuildColumnIndex(t *Table) *KeyGroups { return BuildKeyGroups(t, EntityKey) }

// BuildKeyGroups scans t once and groups each column's linked cells by
// key(entity). A column's groups are found through one map from key to
// group, cleared between columns: a column can hold thousands of distinct
// keys.
func BuildKeyGroups(t *Table, key func(kg.EntityID) uint32) *KeyGroups {
	g := &KeyGroups{NumRows: len(t.Rows), Offsets: make([]int32, 1, t.NumColumns()+1)}
	var pos map[uint32]int
	for j := range t.NumColumns() {
		clear(pos)
		for _, row := range t.Rows {
			e, ok := row[j].EntityID()
			if !ok {
				continue
			}
			k := key(e)
			if i, seen := pos[k]; seen {
				g.Counts[i]++
				continue
			}
			if pos == nil {
				pos = make(map[uint32]int)
			}
			pos[k] = len(g.Keys)
			g.Keys = append(g.Keys, k)
			g.Counts = append(g.Counts, 1)
		}
		g.Offsets = append(g.Offsets, int32(len(g.Keys)))
	}
	g.Keys, g.Counts = slices.Clip(g.Keys), slices.Clip(g.Counts)
	return g
}
