package core

import (
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/obs"
	"thetis/internal/table"
)

var mFilterResigns = obs.IndexFilterResignsTotal(nil)

// TypeFilterState maintains the frequent-type filter of Section 6.1 under
// corpus mutation. The filter drops types present in more than threshold
// of all tables, so its membership depends on two moving quantities: each
// type's table count and the total table count (the limit is
// threshold × total and shifts with EVERY add or remove — any type can
// cross it on any mutation, in either direction). The state keeps the
// per-type counts, recomputes membership after each mutation, and when a
// type flips it re-signs every affected item in the attached LSEI: remove
// under the old filter, toggle the shared map, re-insert under the new one
// (see LSEI.removeForResign/reinsert).
//
// The invariant this buys is exact rebuild equivalence: after any sequence
// of mutations, Filter() equals FrequentTypesOver on the final corpus and
// every stored LSH signature equals the one a from-scratch build would
// compute — the property the live battery (live_test.go) checks bit for
// bit.
//
// The filter map handed out by Filter is the same instance the LSEI was
// built with (BuildTypeLSEIFiltered) and is mutated in place, so readers
// must be excluded during AddTable/RemoveTable — thetis.System holds its
// write lock. Embedding-mode indexes have no type filter and need no
// state.
type TypeFilterState struct {
	tj        *TypeJaccard
	threshold float64
	counts    []int // by type ID: live tables whose expanded types hold it
	total     int
	filter    map[kg.TypeID]bool
	// setSeen and typeSeen stamp the type sets and types met in the table
	// count walks, under generation gen (64 bits: it never wraps).
	setSeen, typeSeen []uint64
	gen               uint64
}

// NewTypeFilterState computes the filter over the lake from scratch (this
// is what FrequentTypesOver returns). Pass the returned Filter() map to
// BuildTypeLSEIFiltered so state and index share one instance.
func NewTypeFilterState(l *lake.Lake, tj *TypeJaccard, threshold float64) *TypeFilterState {
	fs := countTypes(make(map[kg.TypeID]bool), l, tj, threshold)
	for _, ty := range fs.flips() {
		fs.filter[ty] = true
	}
	return fs
}

// ResumeTypeFilterState rebuilds mutation state around an existing filter
// map — the one a built or snapshot-loaded LSEI already carries — so the
// index's signatures stay valid and later flips propagate through the
// shared instance. Counts are recomputed from the lake; if the adopted map
// disagrees with the recomputed membership (it cannot when filter and
// corpus were saved together), ix is re-signed to reconcile.
func ResumeTypeFilterState(filter map[kg.TypeID]bool, l *lake.Lake, tj *TypeJaccard, threshold float64, ix *LSEI) *TypeFilterState {
	fs := countTypes(filter, l, tj, threshold)
	fs.resign(ix)
	return fs
}

// countTypes is a state around filter with every live table of l counted.
func countTypes(filter map[kg.TypeID]bool, l *lake.Lake, tj *TypeJaccard, threshold float64) *TypeFilterState {
	fs := &TypeFilterState{
		tj:        tj,
		threshold: threshold,
		counts:    make([]int, tj.numTypes),
		filter:    filter,
		setSeen:   make([]uint64, tj.NumTypeSets()),
		typeSeen:  make([]uint64, tj.numTypes),
	}
	for _, t := range l.Tables() {
		if t != nil {
			fs.count(t, 1)
		}
	}
	return fs
}

// Filter returns the shared live filter map. Callers must treat it as
// read-only and hold the owning system's read lock while consulting it.
func (fs *TypeFilterState) Filter() map[kg.TypeID]bool { return fs.filter }

// Threshold returns the frequent-type threshold the state keeps the filter
// at.
func (fs *TypeFilterState) Threshold() float64 { return fs.threshold }

// AddTable records t joining the corpus and re-signs whatever its arrival
// flips across the threshold in ix (nil when no index is built). Call it
// BEFORE LSEI.AddTable for the same table, so the new table's own
// signatures are computed under the filter that now includes it.
func (fs *TypeFilterState) AddTable(t *table.Table, ix *LSEI) {
	fs.count(t, 1)
	fs.resign(ix)
}

// RemoveTable records t leaving the corpus and re-signs whatever its
// departure flips in ix (nil when no index is built). Call it AFTER
// LSEI.RemoveTable for the same table, which must run while the filter
// still matches the stored signatures.
func (fs *TypeFilterState) RemoveTable(t *table.Table, ix *LSEI) {
	fs.count(t, -1)
	fs.resign(ix)
}

// count applies one table's expanded type set to the counters with the
// given delta (+1 add, -1 remove), expanding each distinct interned type
// set of its cells once.
func (fs *TypeFilterState) count(t *table.Table, delta int) {
	fs.gen++
	fs.total += delta
	for _, r := range t.Rows {
		for _, c := range r {
			e, ok := c.EntityID()
			if !ok {
				continue
			}
			id := fs.tj.SetID(e)
			if id < 0 || fs.setSeen[id] == fs.gen {
				continue
			}
			fs.setSeen[id] = fs.gen
			for _, ty := range fs.tj.sets[id] {
				if fs.typeSeen[ty] != fs.gen {
					fs.typeSeen[ty] = fs.gen
					fs.counts[ty] += delta
				}
			}
		}
	}
}

// flips returns every type whose frequent-ness disagrees with the current
// filter map. Because the limit moves with the total, this scans all
// counted types, plus filtered types whose count dropped to zero. Frequent
// means in MORE than threshold of the tables (Section 6.1).
func (fs *TypeFilterState) flips() []kg.TypeID {
	limit := fs.threshold * float64(fs.total)
	var out []kg.TypeID
	for ty, c := range fs.counts {
		if c > 0 && (float64(c) > limit) != fs.filter[kg.TypeID(ty)] {
			out = append(out, kg.TypeID(ty))
		}
	}
	for ty := range fs.filter {
		if int(ty) >= len(fs.counts) || fs.counts[ty] == 0 {
			out = append(out, ty)
		}
	}
	return out
}

// resign propagates pending flips: pull affected items out of ix (when
// set) under the old filter, toggle the shared map, re-insert under the new
// one.
func (fs *TypeFilterState) resign(ix *LSEI) {
	flips := fs.flips()
	if len(flips) == 0 {
		return
	}
	var removed []uint32
	if ix != nil {
		removed = ix.removeForResign(flips)
	}
	for _, ty := range flips {
		if fs.filter[ty] {
			delete(fs.filter, ty)
		} else {
			fs.filter[ty] = true
		}
	}
	if ix != nil {
		ix.reinsert(removed)
	}
	mFilterResigns.Add(int64(len(removed)))
}
