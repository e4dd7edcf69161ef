// Package lake implements the data-lake corpus store: a collection of
// tables with dense table IDs, entity→table posting lists, and the corpus
// statistics reported in Table 2 of the paper. Together with a kg.Graph
// and the entity annotations on cells it forms the Semantic Data Lake of
// Definition 2.1 — the pair (catalog of tables, partial cell→entity
// mapping Φ) every search runs against.
//
// Besides raw storage the lake maintains the derived read-side structures
// the search pipeline needs: posting lists from entities to the tables
// mentioning them (the Φ⁻¹ direction, which both the LSEI prefilter votes
// and the IDF informativeness weighting consume), per-entity table
// frequencies, and lazily built per-table column indexes
// (table.ColumnIndex) that let the scorer fold a column by distinct
// entities instead of raw cells. Tables can be added at any time and
// removed again (Remove tombstones the slot so every other table keeps its
// ID — see docs/LIVE_INDEX.md); a Lake is safe for concurrent readers, and
// mutation must be serialized against them by the caller (thetis.System
// holds its write lock across Add/Remove).
package lake

import (
	"fmt"
	"sync/atomic"

	"thetis/internal/kg"
	"thetis/internal/table"
)

// TableID identifies a table within a Lake. IDs are dense and start at 0.
type TableID int32

// Lake is a mutable corpus of tables tied to a reference KG. It is safe
// for concurrent readers; Add/Remove must be serialized against them by
// the caller.
type Lake struct {
	Graph  *kg.Graph
	tables []*table.Table

	// postings holds, at index e, the sorted list of tables mentioning
	// entity e (the Φ⁻¹ side of the semantic data lake mapping); nil for an
	// entity no live table mentions. Table.Entities is distinct, so a
	// list's length is the entity's table frequency, the df behind the
	// informativeness weight I(e).
	postings [][]TableID
	// colIndex holds one lazily built column index slot per table,
	// index-aligned with tables.
	colIndex []*atomic.Pointer[table.ColumnIndex]
	// removed counts tombstoned slots (nil entries in tables), so the live
	// table count — the N of every corpus-frequency statistic — stays O(1).
	removed int
}

// New creates an empty lake over graph g.
func New(g *kg.Graph) *Lake {
	return &Lake{Graph: g}
}

// Add ingests a table and returns its ID. The table's entity annotations
// are indexed into the posting lists at this point; annotations added to the
// table afterwards are invisible to the lake (re-ingest instead).
func (l *Lake) Add(t *table.Table) TableID {
	id := TableID(len(l.tables))
	l.tables = append(l.tables, t)
	l.colIndex = append(l.colIndex, &atomic.Pointer[table.ColumnIndex]{})
	for _, e := range t.Entities() {
		if int(e) >= len(l.postings) {
			l.postings = append(l.postings, make([][]TableID, int(e)+1-len(l.postings))...)
		}
		l.postings[e] = append(l.postings[e], id)
	}
	return id
}

// Remove tombstones table id: the slot is nilled (every other table keeps
// its ID), the table's entities are stripped from the posting lists (an
// emptied list is released), and its memoized column index is dropped.
// Removing an unknown or already-removed ID returns false. Like Add,
// Remove must be serialized against readers by the caller.
func (l *Lake) Remove(id TableID) bool {
	if int(id) < 0 || int(id) >= len(l.tables) || l.tables[int(id)] == nil {
		return false
	}
	t := l.tables[int(id)]
	for _, e := range t.Entities() {
		pl := l.postings[e]
		for i, tid := range pl {
			if tid == id {
				pl = append(pl[:i], pl[i+1:]...)
				break
			}
		}
		if len(pl) == 0 {
			pl = nil
		}
		l.postings[e] = pl
	}
	l.tables[int(id)] = nil
	l.colIndex[int(id)].Store(nil)
	l.removed++
	return true
}

// NumTables returns the number of live (non-removed) tables — the N behind
// IDF informativeness, the frequent-type filter, and Stats.
func (l *Lake) NumTables() int { return len(l.tables) - l.removed }

// NumSlots returns the number of table ID slots ever allocated, including
// tombstones. Table IDs are always in [0, NumSlots()).
func (l *Lake) NumSlots() int { return len(l.tables) }

// Table returns the table with the given ID, or nil when the ID is out of
// range or the table was removed.
func (l *Lake) Table(id TableID) *table.Table {
	if int(id) < 0 || int(id) >= len(l.tables) {
		return nil
	}
	return l.tables[int(id)]
}

// Tables returns all table slots in ID order. The slice is owned by the
// lake; removed tables appear as nil entries.
func (l *Lake) Tables() []*table.Table { return l.tables }

// LiveTableIDs returns the IDs of all live tables in ascending order — the
// candidate set of a full scan.
func (l *Lake) LiveTableIDs() []TableID {
	out := make([]TableID, 0, l.NumTables())
	for id, t := range l.tables {
		if t != nil {
			out = append(out, TableID(id))
		}
	}
	return out
}

// TablesWith returns the IDs of tables mentioning entity e, in ID order
// (nil when none does). The slice is owned by the lake and must not be
// modified.
func (l *Lake) TablesWith(e kg.EntityID) []TableID {
	if int(e) >= len(l.postings) {
		return nil
	}
	return l.postings[e]
}

// ColumnIndex returns the per-column entity aggregation of table id,
// building it on first use and memoizing it for every later query (the
// scoring hot path folds columns through it instead of iterating raw
// cells). Concurrent first calls may build the index twice; both results
// are identical and one wins benignly. The index snapshots the table's
// annotations, consistent with the lake's own "re-ingest to update"
// contract.
func (l *Lake) ColumnIndex(id TableID) *table.ColumnIndex {
	if int(id) < 0 || int(id) >= len(l.colIndex) {
		return nil
	}
	slot := l.colIndex[int(id)]
	if ci := slot.Load(); ci != nil {
		return ci
	}
	t := l.tables[int(id)]
	if t == nil {
		// Removed table: Remove dropped the memo and the slot stays empty
		// (IDs are never reused), so stale reads are impossible.
		return nil
	}
	ci := table.BuildColumnIndex(t)
	slot.Store(ci)
	return ci
}

// EntityFrequency returns the number of tables mentioning entity e.
func (l *Lake) EntityFrequency(e kg.EntityID) int { return len(l.TablesWith(e)) }

// DistinctEntities returns all entities mentioned anywhere in the lake,
// sorted by ID.
func (l *Lake) DistinctEntities() []kg.EntityID {
	var out []kg.EntityID
	for e, pl := range l.postings {
		if len(pl) > 0 {
			out = append(out, kg.EntityID(e))
		}
	}
	return out
}

// Stats holds the per-corpus statistics of Table 2 in the paper: table
// count, mean rows, mean columns, and mean entity-link coverage.
type Stats struct {
	Tables       int
	MeanRows     float64
	MeanColumns  float64
	MeanCoverage float64
	// DistinctEntities is the number of distinct linked entities.
	DistinctEntities int
}

// ComputeStats scans the live corpus once.
func (l *Lake) ComputeStats() Stats {
	s := Stats{Tables: l.NumTables(), DistinctEntities: len(l.DistinctEntities())}
	if s.Tables == 0 {
		return s
	}
	var rows, cols, cov float64
	for _, t := range l.tables {
		if t == nil {
			continue
		}
		rows += float64(t.NumRows())
		cols += float64(t.NumColumns())
		cov += t.LinkCoverage()
	}
	n := float64(s.Tables)
	s.MeanRows = rows / n
	s.MeanColumns = cols / n
	s.MeanCoverage = cov / n
	return s
}

// String renders the stats as one Table 2-style row.
func (s Stats) String() string {
	return fmt.Sprintf("T=%d R=%.1f C=%.1f Cov=%.1f%%", s.Tables, s.MeanRows, s.MeanColumns, 100*s.MeanCoverage)
}
