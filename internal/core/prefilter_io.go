package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"thetis/internal/atomicio"
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/lsh"
)

// LSEI persistence: a built index can be written to disk and reloaded
// against the same lake and similarity structures, skipping the bucket
// build at startup (a type index re-signs only the interned type sets of
// its indexed entities). The caller is responsible for pairing the
// snapshot with the same corpus it was built from.
//
// The snapshot is framed in the checksummed atomicio envelope (magic +
// version header, CRC32C-sealed sections, whole-file footer checksum; see
// docs/RELIABILITY.md for the wire layout). Loading validates every layer:
// a snapshot with even a single flipped bit fails with
// atomicio.ErrCorruptSnapshot instead of producing a silently wrong index,
// so callers can fall back to a brute-force rebuild (degraded-mode
// serving).

const (
	lseiMagic = uint32(0x544C5332) // "TLS2"
	// Version 1 buckets hold MinHash values whose multiply wrapped past
	// 2^64; refuse them rather than probe them with exact ones.
	lseiVersion = uint32(2)
)

// Write serializes the LSEI (configuration, hashers, filters, bucket
// index). The lake itself is not serialized.
func (x *LSEI) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	sw, err := atomicio.NewSnapshotWriter(bw, lseiMagic, lseiVersion)
	if err != nil {
		return err
	}
	// Header section: fixed-size configuration plus the type filter and
	// indexed-set / column-table body, sealed with its own checksum.
	cw := atomicio.NewCRCWriter(sw)
	wU32 := func(v uint32) error { return binary.Write(cw, binary.LittleEndian, v) }
	kind := uint32(0)
	if x.minHash == nil {
		kind = 1
	}
	mode := uint32(0)
	if x.columnMode {
		mode = 1
	}
	for _, v := range []uint32{kind, mode,
		uint32(x.cfg.Vectors), uint32(x.cfg.BandSize),
		math.Float32bits(float32(x.cfg.FrequentTypeThreshold)),
		uint32(x.cfg.Seed)} {
		if err := wU32(v); err != nil {
			return err
		}
	}
	// Type filter (empty for embedding indexes).
	filter := make([]uint32, 0, len(x.typeFilter))
	for t := range x.typeFilter {
		filter = append(filter, uint32(t))
	}
	sort.Slice(filter, func(i, j int) bool { return filter[i] < filter[j] })
	if err := wU32(uint32(len(filter))); err != nil {
		return err
	}
	for _, t := range filter {
		if err := wU32(t); err != nil {
			return err
		}
	}
	// Entity-mode indexed set / column-mode table map.
	if x.columnMode {
		if err := wU32(uint32(len(x.colTable))); err != nil {
			return err
		}
		for _, tid := range x.colTable {
			if err := wU32(uint32(tid)); err != nil {
				return err
			}
		}
	} else {
		ids := make([]uint32, 0, len(x.indexed))
		for e := range x.indexed {
			ids = append(ids, uint32(e))
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		if err := wU32(uint32(len(ids))); err != nil {
			return err
		}
		for _, e := range ids {
			if err := wU32(e); err != nil {
				return err
			}
		}
	}
	if err := cw.WriteSum(); err != nil {
		return err
	}
	// Hasher and bucket index sections (each sealed by its own checksum in
	// internal/lsh).
	if x.minHash != nil {
		if err := x.minHash.Write(sw); err != nil {
			return err
		}
	} else {
		if err := x.hyper.Write(sw); err != nil {
			return err
		}
	}
	if err := x.index.Write(sw); err != nil {
		return err
	}
	if err := sw.Close(); err != nil {
		return err
	}
	return bw.Flush()
}

// lseiHeader holds the decoded fixed-size prefix.
type lseiHeader struct {
	kind, mode uint32
	cfg        LSEIConfig
}

func readLSEIHeader(r io.Reader) (lseiHeader, error) {
	var h lseiHeader
	rU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(r, binary.LittleEndian, &v)
		return v, err
	}
	fields := make([]uint32, 6)
	for i := range fields {
		var err error
		if fields[i], err = rU32(); err != nil {
			return h, atomicio.Corruptf("core: truncated LSEI header: %v", err)
		}
	}
	h.kind, h.mode = fields[0], fields[1]
	h.cfg = LSEIConfig{
		Vectors:               int(fields[2]),
		BandSize:              int(fields[3]),
		FrequentTypeThreshold: float64(math.Float32frombits(fields[4])),
		ColumnAggregation:     h.mode == 1,
		Seed:                  int64(fields[5]),
	}
	if h.kind > 1 || h.mode > 1 {
		return h, atomicio.Corruptf("core: implausible LSEI header kind=%d mode=%d", h.kind, h.mode)
	}
	if err := h.cfg.Validate(); err != nil {
		return h, atomicio.Corruptf("core: implausible LSEI configuration: %v", err)
	}
	return h, nil
}

// openLSEISnapshot validates the envelope header and version.
func openLSEISnapshot(r io.Reader) (*atomicio.SnapshotReader, error) {
	sr, err := atomicio.NewSnapshotReader(bufio.NewReader(r), lseiMagic)
	if err != nil {
		return nil, err
	}
	if v := sr.Version(); v != lseiVersion {
		return nil, atomicio.Corruptf("core: unsupported LSEI snapshot version %d (want %d)", v, lseiVersion)
	}
	return sr, nil
}

// LoadTypeLSEI reads a snapshot written by Write for a type index,
// reattaching it to the lake and type sets it was built over. Corrupt
// input of any kind — flipped bytes, truncation, implausible shapes —
// fails with atomicio.ErrCorruptSnapshot, never a wrong-but-loaded index.
func LoadTypeLSEI(l *lake.Lake, tj *TypeJaccard, r io.Reader) (*LSEI, error) {
	sr, err := openLSEISnapshot(r)
	if err != nil {
		return nil, err
	}
	cr := atomicio.NewCRCReader(sr)
	h, err := readLSEIHeader(cr)
	if err != nil {
		return nil, err
	}
	x := &LSEI{cfg: h.cfg, lake: l, typeSets: tj, columnMode: h.mode == 1, typeFilter: map[kg.TypeID]bool{}}
	if err := readLSEIBody(cr, x); err != nil {
		return nil, err
	}
	// Verify the header section before acting on its kind byte, so a
	// flipped kind reads as corruption, not as a wrong-kind snapshot.
	if err := cr.VerifySum(); err != nil {
		return nil, err
	}
	if h.kind != 0 {
		return nil, fmt.Errorf("core: snapshot holds an embedding LSEI, not a type LSEI")
	}
	if x.minHash, err = lsh.ReadMinHasher(sr); err != nil {
		return nil, err
	}
	if x.index, err = lsh.ReadIndex(sr); err != nil {
		return nil, err
	}
	if err := sr.Close(); err != nil {
		return nil, err
	}
	if !x.columnMode { // derive the signature table for the indexed entities
		x.setSigs = make([][]uint32, tj.NumTypeSets())
		for e := range x.indexed {
			if id := tj.SetID(e); id >= 0 {
				x.setSignature(id, true)
			}
		}
	}
	return x, nil
}

// LoadEmbeddingLSEI reads a snapshot written by Write for an embedding
// index. See LoadTypeLSEI for the corruption contract.
func LoadEmbeddingLSEI(l *lake.Lake, ec *EmbeddingCosine, r io.Reader) (*LSEI, error) {
	sr, err := openLSEISnapshot(r)
	if err != nil {
		return nil, err
	}
	cr := atomicio.NewCRCReader(sr)
	h, err := readLSEIHeader(cr)
	if err != nil {
		return nil, err
	}
	x := &LSEI{cfg: h.cfg, lake: l, cos: ec, columnMode: h.mode == 1, typeFilter: map[kg.TypeID]bool{}}
	if err := readLSEIBody(cr, x); err != nil {
		return nil, err
	}
	if err := cr.VerifySum(); err != nil {
		return nil, err
	}
	if h.kind != 1 {
		return nil, fmt.Errorf("core: snapshot holds a type LSEI, not an embedding LSEI")
	}
	if x.hyper, err = lsh.ReadHyperplaneHasher(sr); err != nil {
		return nil, err
	}
	if x.index, err = lsh.ReadIndex(sr); err != nil {
		return nil, err
	}
	if err := sr.Close(); err != nil {
		return nil, err
	}
	return x, nil
}

// lseiAllocHint caps capacity pre-allocated from decoded counts, so a
// corrupt count cannot drive an out-of-memory crash; larger collections
// grow by append, bounded by the actual stream length.
const lseiAllocHint = 1 << 20

// readLSEIBody decodes the type filter and indexed/colTable sections.
func readLSEIBody(r io.Reader, x *LSEI) error {
	rU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(r, binary.LittleEndian, &v)
		return v, err
	}
	nFilter, err := rU32()
	if err != nil {
		return atomicio.Corruptf("core: truncated LSEI type filter: %v", err)
	}
	for i := uint32(0); i < nFilter; i++ {
		t, err := rU32()
		if err != nil {
			return atomicio.Corruptf("core: truncated LSEI type filter: %v", err)
		}
		x.typeFilter[kg.TypeID(t)] = true
	}
	n, err := rU32()
	if err != nil {
		return atomicio.Corruptf("core: truncated LSEI body: %v", err)
	}
	if x.columnMode {
		x.colTable = make([]lake.TableID, 0, min(int(n), lseiAllocHint))
		for i := uint32(0); i < n; i++ {
			v, err := rU32()
			if err != nil {
				return atomicio.Corruptf("core: truncated LSEI column table: %v", err)
			}
			// The vote workspace is sized to the lake's table slots.
			if tid := lake.TableID(v); tid >= 0 && int(tid) >= x.lake.NumSlots() {
				return atomicio.Corruptf("core: LSEI column table names table %d of a %d-slot lake", tid, x.lake.NumSlots())
			}
			x.colTable = append(x.colTable, lake.TableID(v))
		}
	} else {
		x.indexed = make(map[kg.EntityID]bool, min(int(n), lseiAllocHint))
		for i := uint32(0); i < n; i++ {
			v, err := rU32()
			if err != nil {
				return atomicio.Corruptf("core: truncated LSEI indexed set: %v", err)
			}
			x.indexed[kg.EntityID(v)] = true
		}
	}
	return nil
}
