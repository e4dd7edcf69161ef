// Live-lake maintenance: incremental AddTable/RemoveTable against built
// indexes, epoch-versioned invalidation, compaction, and the write-ahead
// delta log that lets a restart replay base snapshot + deltas. The design
// and its rebuild-equivalence invariant — after any mutation sequence,
// search results are bit-identical to a from-scratch build over the final
// corpus, at every shard count — are documented in docs/LIVE_INDEX.md and
// checked by live_test.go.
package thetis

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"thetis/internal/atomicio"
	"thetis/internal/bm25"
	"thetis/internal/obs"
	"thetis/internal/table"
)

var (
	mIndexEpoch     = obs.IndexEpoch(nil)
	mDeltaAdds      = obs.IndexDeltasTotal(nil, "add")
	mDeltaRemoves   = obs.IndexDeltasTotal(nil, "remove")
	mTombstones     = obs.IndexTombstones(nil)
	mCompactions    = obs.IndexCompactionsTotal(nil)
	mDeltaLogFailed = obs.DeltaLogFailed(nil)
)

// ErrNoSuchTable reports a RemoveTable (or delta replay) against an ID
// that was never assigned or is already removed.
var ErrNoSuchTable = errors.New("thetis: no such table")

// Delta-log operation codes.
const (
	deltaOpAdd    = byte(1) // payload: one table in the annotated JSON format
	deltaOpRemove = byte(2) // payload: global table ID as little-endian uint32
)

// AddTable ingests a table (annotations included): the partitioner picks
// its shard, and the returned global ID is assigned in ingestion order, the
// same at every shard count. Tables must be fully annotated before
// ingestion; use LinkTable first when links come from a Linker.
//
// Ingestion is incremental: tables added after BuildIndex or
// BuildKeywordIndex are folded into the live indexes — LSH signatures
// inserted, the frequent-type filter re-balanced, BM25 postings extended —
// honoring the semantic-data-lake principle of effortless dataset
// addition, and the result is bit-identical to rebuilding from scratch
// (docs/LIVE_INDEX.md). AddTable may run concurrently with searches; it
// blocks them briefly. Similarity structures cover the KG as it was when
// the similarity was selected — tables mentioning entities added to the
// graph afterwards still ingest fine, but call Refresh to make the new
// entities similar to anything. It panics on a read-only coordinator
// (UseRemoteShards).
func (s *System) AddTable(t *Table) TableID {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.remotes != nil {
		panic(ErrReadOnly)
	}
	s.logAddLocked(t)
	return s.addTableLocked(t)
}

// AddTableJSON ingests one table in the annotated JSON interchange format
// (the body of the daemon's POST /tables), interning any entity URIs into
// the graph, and returns its ID.
func (s *System) AddTableJSON(data []byte) (TableID, error) {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.remotes != nil {
		return 0, ErrReadOnly
	}
	t, err := table.ReadJSON(s.graph, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	s.logAddLocked(t)
	return s.addTableLocked(t), nil
}

// RemoveTable removes a table from the corpus and from every live index:
// its LSH signatures leave its shard's LSEI buckets, the shared
// frequent-type filter is re-balanced (re-signing whatever the departure
// flips, on every shard), its BM25 postings disappear, and its memoized
// column index is dropped. The ID is tombstoned, never reused; Table(id)
// returns nil afterwards. Removal may run concurrently with searches; it
// blocks them briefly.
func (s *System) RemoveTable(id TableID) error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.remotes != nil {
		return ErrReadOnly
	}
	if s.tableLocked(id) == nil {
		return ErrNoSuchTable
	}
	var p [4]byte
	binary.LittleEndian.PutUint32(p[:], uint32(id))
	s.logDeltaLocked(deltaOpRemove, p[:])
	s.removeTableLocked(id)
	return nil
}

// IndexEpoch returns the lake's mutation epoch: a counter bumped by every
// AddTable and RemoveTable (compaction does not bump it — the corpus is
// unchanged). Memoized state is validated against it.
func (s *System) IndexEpoch() uint64 { return s.epoch.Load() }

// Compact rebuilds every shard's LSEI (and the shared frequent-type filter
// state) from the live corpus and hot-swaps them in shard by shard,
// shedding tombstoned column slots and emptied buckets accumulated by
// removals. Searches keep flowing against the old indexes during the
// rebuild; the corpus epoch is unchanged. A no-op when no index is active.
func (s *System) Compact() {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	if !s.hasAnyIndex() {
		return
	}
	s.rebuildIndexesLocked(s.indexCfg)
	mCompactions.Inc()
}

// GraphCounts is a consistent snapshot of the KG's size counters, taken
// under the serving lock so it never races live ingestion (which interns
// new entities into the graph).
type GraphCounts struct {
	Entities   int
	Types      int
	Predicates int
	Edges      int
}

// GraphCounts returns the KG's size counters at one corpus epoch.
func (s *System) GraphCounts() GraphCounts {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return GraphCounts{
		Entities:   s.graph.NumEntities(),
		Types:      s.graph.NumTypes(),
		Predicates: s.graph.NumPredicates(),
		Edges:      s.graph.NumEdges(),
	}
}

// addTableLocked applies one table addition to every live structure. The
// shared frequent-type filter is re-balanced BEFORE the table joins its
// shard, so the new table's signatures are computed under the filter that
// now includes it — the order a from-scratch rebuild implies. Caller holds
// maintMu and mu.
func (s *System) addTableLocked(t *Table) TableID {
	si := s.part.Assign(t)
	if si < 0 || si >= len(s.shards) {
		panic(fmt.Sprintf("thetis: partitioner assigned shard %d outside [0, %d)", si, len(s.shards)))
	}
	if s.filterState != nil {
		s.filterState.AddTable(t, s.liveIndexes()...)
	}
	global := TableID(len(s.owner))
	local := s.shards[si].Add(t, global)
	s.owner = append(s.owner, shardLoc{shard: int32(si), local: local})
	s.live++
	if s.keyword != nil {
		s.keyword.Add(int32(global), bm25.TableText(t))
		s.keyword.Finish()
	}
	mDeltaAdds.Inc()
	s.noteEpochLocked()
	return global
}

// removeTableLocked applies one table removal to every live structure. The
// owning shard's LSEI sheds the table's signatures while the filter still
// matches them; the filter re-balances AFTER. Caller holds maintMu and mu
// and has verified the table is live.
func (s *System) removeTableLocked(id TableID) {
	loc := s.owner[int(id)]
	t := s.shards[loc.shard].Remove(loc.local)
	if s.filterState != nil {
		s.filterState.RemoveTable(t, s.liveIndexes()...)
	}
	if s.keyword != nil {
		s.keyword.Remove(int32(id))
		s.keyword.Finish()
	}
	s.owner[int(id)] = shardLoc{shard: -1}
	s.live--
	mDeltaRemoves.Inc()
	s.noteEpochLocked()
}

func (s *System) noteEpochLocked() {
	epoch := s.epoch.Add(1)
	mIndexEpoch.Set(float64(epoch))
	mTombstones.Set(float64(len(s.owner) - s.live))
}

// logAddLocked write-ahead-logs one addition when a delta log is attached.
func (s *System) logAddLocked(t *Table) {
	if s.delta == nil {
		return
	}
	var buf bytes.Buffer
	if err := table.WriteJSON(t, s.graph, &buf); err != nil {
		s.failDeltaLog(err)
		return
	}
	s.logDeltaLocked(deltaOpAdd, buf.Bytes())
}

// deltaFile is what the delta log needs of its file; tests substitute a
// fault-injecting wrapper.
type deltaFile interface {
	io.Writer
	Sync() error
	Close() error
}

// deltaLog binds a System to an append-only atomicio delta log.
type deltaLog struct {
	f deltaFile
	w *atomicio.DeltaWriter
}

// logDeltaLocked appends and fsyncs one record. Failures are sticky: the
// in-memory mutation still applies (availability over log durability), the
// log stops accepting records, and DeltaLogError, /readyz and the
// thetis_delta_log_failed gauge report it so the operator can snapshot and
// rotate. Caller holds maintMu.
func (s *System) logDeltaLocked(op byte, payload []byte) {
	if s.delta == nil || s.deltaErr.Load() != nil {
		return
	}
	err := s.delta.w.Append(op, payload)
	if err == nil {
		err = s.delta.f.Sync()
	}
	if err != nil {
		s.failDeltaLog(err)
	}
}

func (s *System) failDeltaLog(err error) {
	if s.deltaErr.CompareAndSwap(nil, &err) {
		mDeltaLogFailed.Set(1)
	}
}

// AttachDeltaLog binds path as the system's write-ahead mutation log.
//
// A missing or empty file starts a fresh log whose header records the
// current global table-slot count as the base, and every subsequent
// AddTable/AddTableJSON/RemoveTable appends one fsynced record. An existing
// log is validated against the loaded base corpus (slot-count mismatch is
// corruption), its records are replayed through the normal mutation path —
// reproducing exactly the index state the previous process reached — and
// appending resumes at the next sequence number.
//
// The log records global-ID mutations in order and replay routes each
// addition through the partitioner again, so it covers every shard count:
// both built-in partitioners place deterministically for a given ingestion
// sequence, and the restarted process must use the same one.
//
// Any damage — flipped bytes, truncation mid-record, reordered or
// duplicated records, a remove of a dead ID — surfaces as
// atomicio.ErrCorruptSnapshot and leaves no log attached; records before
// the damage may already have mutated the corpus (the replay loop applies
// as it reads), so callers must treat an error as "restore from base and a
// clean log", matching the snapshot discipline in docs/RELIABILITY.md.
//
// Attach after loading the base corpus and before serving.
func (s *System) AttachDeltaLog(path string) error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	if s.delta != nil {
		return errors.New("thetis: delta log already attached")
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	w, err := s.openDeltaWriter(f)
	if err != nil {
		f.Close()
		return err
	}
	s.delta = &deltaLog{f: f, w: w}
	return nil
}

// openDeltaWriter starts a fresh log on an empty file, or replays an
// existing one and resumes appending after its last record.
func (s *System) openDeltaWriter(f *os.File) (*atomicio.DeltaWriter, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() == 0 {
		w, err := atomicio.NewDeltaWriter(f, uint64(len(s.owner)))
		if err != nil {
			return nil, err
		}
		return w, f.Sync()
	}
	next, err := s.replayDeltas(f)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return nil, err
	}
	return atomicio.ResumeDeltaWriter(f, next), nil
}

// replayDeltas validates the log header against the base corpus and
// replays every record through the normal mutation path, returning the
// next sequence number for appending.
func (s *System) replayDeltas(r io.Reader) (uint64, error) {
	dr, err := atomicio.NewDeltaReader(r)
	if err != nil {
		return 0, err
	}
	if got, want := dr.BaseTables(), uint64(len(s.owner)); got != want {
		return 0, atomicio.Corruptf(
			"delta log expects a base of %d table slots, corpus has %d (wrong base snapshot?)", got, want)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		_, op, payload, err := dr.Next()
		if err == io.EOF {
			return dr.NextSeq(), nil
		}
		if err != nil {
			return 0, err
		}
		if err := s.applyDeltaLocked(op, payload); err != nil {
			return 0, err
		}
	}
}

// applyDeltaLocked re-applies one logged mutation during replay.
func (s *System) applyDeltaLocked(op byte, payload []byte) error {
	switch op {
	case deltaOpAdd:
		t, err := table.ReadJSON(s.graph, bytes.NewReader(payload))
		if err != nil {
			return atomicio.Corruptf("delta add: bad table payload: %v", err)
		}
		s.addTableLocked(t)
	case deltaOpRemove:
		if len(payload) != 4 {
			return atomicio.Corruptf("delta remove: payload length %d, want 4", len(payload))
		}
		id := TableID(binary.LittleEndian.Uint32(payload))
		if s.tableLocked(id) == nil {
			return atomicio.Corruptf("delta remove: table %d is not live", id)
		}
		s.removeTableLocked(id)
	default:
		return atomicio.Corruptf("unknown delta op %d", op)
	}
	return nil
}

// DeltaLogError returns the sticky error of the attached delta log: nil
// while every mutation has been durably logged, the first append/sync
// failure afterwards. Mutations keep applying in memory once the log
// fails; the operator should snapshot the corpus and attach a fresh log.
// It takes no lock, so a health probe never waits behind an index build.
func (s *System) DeltaLogError() error {
	if p := s.deltaErr.Load(); p != nil {
		return *p
	}
	return nil
}

// CloseDeltaLog detaches and closes the delta log (no-op when none is
// attached), clearing its sticky error. Subsequent mutations are no longer
// logged.
func (s *System) CloseDeltaLog() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	if s.delta == nil {
		return nil
	}
	err := s.delta.f.Close()
	s.delta = nil
	s.deltaErr.Store(nil)
	mDeltaLogFailed.Set(0)
	return err
}
