package table

import (
	"slices"

	"thetis/internal/kg"
)

// ColumnEntityStats summarizes one column for the scoring hot path: the
// distinct linked entities of the column (in first-occurrence row order,
// so derived iteration is deterministic) and, parallel to them, how many
// cells each one occupies.
type ColumnEntityStats struct {
	// Entities are the distinct linked entities of the column.
	Entities []kg.EntityID
	// Counts[i] is the number of cells linked to Entities[i].
	Counts []int32
	// Linked is the total number of linked cells (the sum of Counts).
	Linked int
}

// ColumnIndex pre-aggregates a table's entity annotations per column, so
// that per-row folds over a column (the MAX/AVG row aggregation of
// Algorithm 1, and the score-matrix sums of the column mapping) iterate
// distinct entities with multiplicities instead of raw cells. Columns of a
// table repeat few distinct entities, so this is usually much smaller than
// the table itself.
//
// A ColumnIndex is immutable after construction and safe for concurrent
// readers. It snapshots the annotations at build time; like a lake's
// posting lists, it does not see rows or links added afterwards.
type ColumnIndex struct {
	// Cols holds one entry per table column, index-aligned with the
	// table's attributes.
	Cols []ColumnEntityStats
}

// BuildColumnIndex scans t once and aggregates its entity annotations per
// column.
func BuildColumnIndex(t *Table) *ColumnIndex {
	ci := &ColumnIndex{Cols: make([]ColumnEntityStats, t.NumColumns())}
	for j := range ci.Cols {
		cs := &ci.Cols[j]
		pos := make(map[kg.EntityID]int)
		for _, row := range t.Rows {
			e, ok := row[j].EntityID()
			if !ok {
				continue
			}
			cs.Linked++
			if i, seen := pos[e]; seen {
				cs.Counts[i]++
				continue
			}
			pos[e] = len(cs.Entities)
			cs.Entities = append(cs.Entities, e)
			cs.Counts = append(cs.Counts, 1)
		}
	}
	return ci
}

// KeyGroups summarizes a table's columns under a keying of its entities: a
// map from entity to a small key space, such as the interned type set that
// type σ reads a non-identical entity through. Per column it holds the
// distinct keys of the column's linked cells, in first-occurrence row
// order, and, parallel to them, how many cells carry each key, so a fold
// whose value depends on an entity only through its key reads one group
// per key instead of one per entity. The whole table lives in three flat
// slices.
//
// KeyGroups is immutable after construction and safe for concurrent
// readers. Like ColumnIndex it snapshots the table at build time.
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

// BuildKeyGroups scans t once and groups each column's linked cells by
// key(entity). A column's groups are found by a linear search over the
// keys it has met so far: columns repeat few keys.
func BuildKeyGroups(t *Table, key func(kg.EntityID) uint32) *KeyGroups {
	g := &KeyGroups{NumRows: len(t.Rows), Offsets: make([]int32, 1, t.NumColumns()+1)}
	for j := range t.NumColumns() {
		start := len(g.Keys)
		for _, row := range t.Rows {
			e, ok := row[j].EntityID()
			if !ok {
				continue
			}
			k := key(e)
			if i := slices.Index(g.Keys[start:], k); i >= 0 {
				g.Counts[start+i]++
				continue
			}
			g.Keys = append(g.Keys, k)
			g.Counts = append(g.Counts, 1)
		}
		g.Offsets = append(g.Offsets, int32(len(g.Keys)))
	}
	g.Keys, g.Counts = slices.Clip(g.Keys), slices.Clip(g.Counts)
	return g
}
