// Package faultio provides fault-injecting io.Reader and io.Writer wrappers
// for testing the fault-tolerant data plane: streams that fail with a chosen
// error at byte N, truncate (short-read) at byte N, flip bits at chosen
// offsets, or stall mid-transfer — plus a fault-injecting http.RoundTripper
// (FaultTransport) that misbehaves at the network layer: connection
// refusal, 500s, truncated and bit-flipped responses, mid-body stalls,
// slow-loris. The snapshot and loader test suites drive corruption matrices
// and partial-write scenarios through the stream wrappers (make faults);
// the shard-over-HTTP battery drives every remote-leg fault class through
// FaultTransport (internal/server/httpshard_battery_test.go). The package depends only on the
// standard library and is usable from any test.
package faultio

import (
	"errors"
	"io"
	"time"
)

// ErrInjected is the default error produced by failing readers/writers.
var ErrInjected = errors.New("faultio: injected fault")

// FailingReader reads from R until Off bytes have been delivered, then
// returns Err (ErrInjected when nil). It models a device error mid-read.
type FailingReader struct {
	R   io.Reader
	Off int64
	Err error
	n   int64
}

// NewFailingReader returns a reader failing with err after off bytes.
func NewFailingReader(r io.Reader, off int64, err error) *FailingReader {
	return &FailingReader{R: r, Off: off, Err: err}
}

func (fr *FailingReader) Read(p []byte) (int, error) {
	if fr.n >= fr.Off {
		return 0, fr.err()
	}
	if max := fr.Off - fr.n; int64(len(p)) > max {
		p = p[:max]
	}
	n, err := fr.R.Read(p)
	fr.n += int64(n)
	if err == nil && fr.n >= fr.Off {
		// Deliver the boundary bytes; the next call fails.
		return n, nil
	}
	return n, err
}

func (fr *FailingReader) err() error {
	if fr.Err != nil {
		return fr.Err
	}
	return ErrInjected
}

// ShortReader delivers the first Off bytes of R and then reports a clean
// io.EOF, modeling a truncated file (e.g. a crashed writer that never
// finished).
type ShortReader struct {
	R   io.Reader
	Off int64
	n   int64
}

// NewShortReader returns a reader truncating r after off bytes.
func NewShortReader(r io.Reader, off int64) *ShortReader {
	return &ShortReader{R: r, Off: off}
}

func (sr *ShortReader) Read(p []byte) (int, error) {
	if sr.n >= sr.Off {
		return 0, io.EOF
	}
	if max := sr.Off - sr.n; int64(len(p)) > max {
		p = p[:max]
	}
	n, err := sr.R.Read(p)
	sr.n += int64(n)
	return n, err
}

// FlipReader XORs the byte at offset Off (0-based) with Mask as it streams
// through, modeling silent single-byte corruption at rest. Mask 0 is
// replaced by 0x01 so a flip always changes the byte.
type FlipReader struct {
	R    io.Reader
	Off  int64
	Mask byte
	n    int64
}

// NewFlipReader returns a reader flipping mask into the byte at off.
func NewFlipReader(r io.Reader, off int64, mask byte) *FlipReader {
	return &FlipReader{R: r, Off: off, Mask: mask}
}

func (fr *FlipReader) Read(p []byte) (int, error) {
	n, err := fr.R.Read(p)
	if idx := fr.Off - fr.n; idx >= 0 && idx < int64(n) {
		mask := fr.Mask
		if mask == 0 {
			mask = 0x01
		}
		p[idx] ^= mask
	}
	fr.n += int64(n)
	return n, err
}

// StallReader sleeps for Delay once, just before delivering the byte at
// offset Off, modeling a hung NFS mount or throttled disk. Reads before and
// after the stall pass through untouched.
type StallReader struct {
	R       io.Reader
	Off     int64
	Delay   time.Duration
	n       int64
	stalled bool
}

// NewStallReader returns a reader stalling once for delay at off.
func NewStallReader(r io.Reader, off int64, delay time.Duration) *StallReader {
	return &StallReader{R: r, Off: off, Delay: delay}
}

func (sr *StallReader) Read(p []byte) (int, error) {
	if !sr.stalled && sr.n >= sr.Off {
		sr.stalled = true
		time.Sleep(sr.Delay)
	}
	n, err := sr.R.Read(p)
	sr.n += int64(n)
	return n, err
}

// FailingWriter forwards writes to W until Off bytes have been accepted,
// then returns Err (ErrInjected when nil), modeling ENOSPC or a device
// error mid-write. The boundary write is split so exactly Off bytes reach W.
type FailingWriter struct {
	W   io.Writer
	Off int64
	Err error
	n   int64
}

// NewFailingWriter returns a writer failing with err after off bytes.
func NewFailingWriter(w io.Writer, off int64, err error) *FailingWriter {
	return &FailingWriter{W: w, Off: off, Err: err}
}

func (fw *FailingWriter) Write(p []byte) (int, error) {
	if fw.n >= fw.Off {
		return 0, fw.err()
	}
	if max := fw.Off - fw.n; int64(len(p)) > max {
		n, err := fw.W.Write(p[:max])
		fw.n += int64(n)
		if err != nil {
			return n, err
		}
		return n, fw.err()
	}
	n, err := fw.W.Write(p)
	fw.n += int64(n)
	return n, err
}

func (fw *FailingWriter) err() error {
	if fw.Err != nil {
		return fw.Err
	}
	return ErrInjected
}

// FlipWriter XORs the byte at offset Off with Mask on its way to W,
// mirroring FlipReader for write-side corruption. Mask 0 is replaced by
// 0x01. The incoming buffer is not modified.
type FlipWriter struct {
	W    io.Writer
	Off  int64
	Mask byte
	n    int64
}

// NewFlipWriter returns a writer flipping mask into the byte at off.
func NewFlipWriter(w io.Writer, off int64, mask byte) *FlipWriter {
	return &FlipWriter{W: w, Off: off, Mask: mask}
}

func (fw *FlipWriter) Write(p []byte) (int, error) {
	if idx := fw.Off - fw.n; idx >= 0 && idx < int64(len(p)) {
		q := make([]byte, len(p))
		copy(q, p)
		mask := fw.Mask
		if mask == 0 {
			mask = 0x01
		}
		q[idx] ^= mask
		p = q
	}
	n, err := fw.W.Write(p)
	fw.n += int64(n)
	return n, err
}
