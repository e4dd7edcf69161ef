// Package faultio provides fault-injecting io.Reader wrappers for testing
// the fault-tolerant data plane: streams that fail with a chosen error at
// byte N or truncate (short-read) at byte N — plus a fault-injecting
// http.RoundTripper (FaultTransport) that misbehaves at the network layer:
// connection refusal, 500s, truncated and bit-flipped responses, mid-body
// stalls, slow-loris. The embedding-store and line-reader tests drive
// truncation and read-fault scenarios through the stream wrappers (make
// faults); the shard-over-HTTP battery drives every remote-leg fault class
// through FaultTransport (internal/server/httpshard_battery_test.go). The
// package depends only on the standard library and is usable from any test.
package faultio

import (
	"errors"
	"io"
)

// ErrInjected is the default error produced by failing readers.
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
