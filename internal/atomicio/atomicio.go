// Package atomicio provides the robust I/O primitives of the fault-tolerant
// data plane: CRC32C section writers/readers, which seal the delta log's
// header and records (delta.go, wire format in docs/RELIABILITY.md), and a
// bounded line reader that the lenient ingestion paths use to skip
// over-long lines instead of aborting. Loads surface every mismatch as
// ErrCorruptSnapshot, so a flipped bit is always detected rather than
// silently replayed.
package atomicio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrCorruptSnapshot is the typed error returned when loading a delta log
// whose bytes fail validation: bad magic, unsupported version, checksum
// mismatch, truncation, or structurally implausible contents. Callers match
// it with errors.Is and refuse to start rather than replay a damaged log.
var ErrCorruptSnapshot = errors.New("corrupt snapshot")

// Corruptf builds an error wrapping ErrCorruptSnapshot with detail.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptSnapshot, fmt.Sprintf(format, args...))
}

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64), the checksum of every delta-log section.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRCWriter forwards writes to W while accumulating a CRC32C of every byte
// written. Serializers write a component through it and seal the component
// with WriteSum.
type CRCWriter struct {
	W   io.Writer
	crc uint32
}

// NewCRCWriter wraps w.
func NewCRCWriter(w io.Writer) *CRCWriter { return &CRCWriter{W: w} }

// Write implements io.Writer.
func (cw *CRCWriter) Write(p []byte) (int, error) {
	n, err := cw.W.Write(p)
	cw.crc = crc32.Update(cw.crc, castagnoli, p[:n])
	return n, err
}

// WriteSum appends the running checksum (little-endian uint32) to the
// underlying writer, sealing the section. The sum bytes themselves are not
// folded into the running CRC, so the matching CRCReader.VerifySum can
// recompute and compare.
func (cw *CRCWriter) WriteSum() error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], cw.crc)
	_, err := cw.W.Write(buf[:])
	return err
}

// CRCReader forwards reads from R while accumulating a CRC32C of every byte
// read, mirroring CRCWriter.
type CRCReader struct {
	R   io.Reader
	crc uint32
}

// NewCRCReader wraps r.
func NewCRCReader(r io.Reader) *CRCReader { return &CRCReader{R: r} }

// Read implements io.Reader.
func (cr *CRCReader) Read(p []byte) (int, error) {
	n, err := cr.R.Read(p)
	cr.crc = crc32.Update(cr.crc, castagnoli, p[:n])
	return n, err
}

// VerifySum reads a section checksum written by CRCWriter.WriteSum from the
// underlying reader (outside the running CRC) and compares it against the
// recomputed sum, returning ErrCorruptSnapshot on mismatch or truncation.
func (cr *CRCReader) VerifySum() error {
	want := cr.crc
	var buf [4]byte
	if _, err := io.ReadFull(cr.R, buf[:]); err != nil {
		return Corruptf("truncated section checksum: %v", err)
	}
	if got := binary.LittleEndian.Uint32(buf[:]); got != want {
		return Corruptf("section checksum mismatch: stored %#x, computed %#x", got, want)
	}
	return nil
}

// LineReader yields lines from a stream with a hard per-line byte cap.
// Unlike bufio.Scanner, an over-long line is not fatal: the reader reports
// it as truncated, consumes the remainder, and keeps going — the behavior
// lenient ingestion needs to quarantine one pathological line without
// abandoning the rest of a corpus.
type LineReader struct {
	br     *bufio.Reader
	max    int
	lineNo int
	eof    bool
}

// NewLineReader wraps r with the given per-line cap (bytes, excluding the
// newline). maxBytes must be positive.
func NewLineReader(r io.Reader, maxBytes int) *LineReader {
	if maxBytes <= 0 {
		panic("atomicio: LineReader needs a positive line cap")
	}
	return &LineReader{br: bufio.NewReaderSize(r, 64*1024), max: maxBytes}
}

// Next returns the next line (without its newline), its 1-based line
// number, and whether the line exceeded the cap (in which case line holds
// the first max bytes and the rest was consumed and discarded). The final
// unterminated line, if any, is returned like any other; exhaustion returns
// io.EOF. The returned slice is valid until the next call.
func (lr *LineReader) Next() (line []byte, lineNo int, tooLong bool, err error) {
	if lr.eof {
		return nil, lr.lineNo, false, io.EOF
	}
	lr.lineNo++
	for {
		frag, e := lr.br.ReadSlice('\n')
		switch {
		case tooLong:
			// Discarding the remainder of an over-long line.
		case len(line)+len(frag) > lr.max:
			keep := lr.max - len(line)
			line = append(line, frag[:keep]...)
			tooLong = true
		default:
			line = append(line, frag...)
		}
		if e == bufio.ErrBufferFull {
			continue
		}
		if e == io.EOF {
			lr.eof = true
			if len(line) == 0 && !tooLong {
				return nil, lr.lineNo, false, io.EOF
			}
			return trimEOL(line), lr.lineNo, tooLong, nil
		}
		if e != nil {
			return trimEOL(line), lr.lineNo, tooLong, e
		}
		return trimEOL(line), lr.lineNo, tooLong, nil
	}
}

func trimEOL(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}
