package faultio

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Fault selects one network misbehavior for a FaultTransport round trip.
type Fault int

const (
	// None passes the request through untouched.
	None Fault = iota
	// Refuse fails before any bytes are exchanged, modeling a connection
	// refused / unreachable host.
	Refuse
	// Status500 short-circuits the request with a well-formed HTTP 500,
	// modeling a crashed or overloaded handler behind a healthy listener.
	Status500
	// TruncateBody delivers the response headers and the first half of the
	// body, then a clean EOF — a mid-transfer connection drop.
	TruncateBody
	// FlipBody XORs one byte in the second half of the response body,
	// modeling silent in-flight corruption that still parses as HTTP.
	FlipBody
	// StallBody delivers the headers immediately but sleeps Delay before
	// the first body byte, modeling a hung backend mid-response. The stall
	// respects the request context, so per-attempt deadlines cut it short.
	StallBody
	// SlowLoris sleeps Delay before even the headers, modeling a server
	// that accepts connections but never answers (the classic slow-loris
	// shape, seen from the client side).
	SlowLoris
)

// String names the fault for test output and error messages.
func (f Fault) String() string {
	switch f {
	case None:
		return "none"
	case Refuse:
		return "refuse"
	case Status500:
		return "status500"
	case TruncateBody:
		return "truncate"
	case FlipBody:
		return "flip"
	case StallBody:
		return "stall"
	case SlowLoris:
		return "slowloris"
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// FaultTransport is an http.RoundTripper that injects network faults
// according to a per-request script: request i suffers Script[i]; requests
// past the end of the script pass through clean (or, with Loop, the script
// repeats forever). That makes "fail twice then recover" and "permanently
// black-holed" replicas both expressible and deterministic, which is what
// the shard-over-HTTP differential battery needs (docs/SHARDING.md,
// internal/server/httpshard_battery_test.go).
//
// It is safe for concurrent use; concurrent requests consume script slots
// in arrival order.
type FaultTransport struct {
	// Base performs the real round trips (http.DefaultTransport when nil).
	Base http.RoundTripper
	// Delay is the stall duration for StallBody and SlowLoris
	// (50ms when zero).
	Delay time.Duration
	// Script assigns a fault to each request in order. Empty means all
	// requests are clean.
	Script []Fault
	// Loop repeats the script forever instead of going clean past its end.
	Loop bool

	mu       sync.Mutex
	requests int
	injected int
}

// NewFaultTransport wraps base with the given fault script.
func NewFaultTransport(base http.RoundTripper, script ...Fault) *FaultTransport {
	return &FaultTransport{Base: base, Script: script}
}

// Requests returns how many round trips have been attempted.
func (t *FaultTransport) Requests() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.requests
}

// Injected returns how many round trips had a fault injected.
func (t *FaultTransport) Injected() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.injected
}

// next consumes one script slot.
func (t *FaultTransport) next() Fault {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := t.requests
	t.requests++
	if len(t.Script) == 0 {
		return None
	}
	if t.Loop {
		i %= len(t.Script)
	} else if i >= len(t.Script) {
		return None
	}
	f := t.Script[i]
	if f != None {
		t.injected++
	}
	return f
}

func (t *FaultTransport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

func (t *FaultTransport) delay() time.Duration {
	if t.Delay > 0 {
		return t.Delay
	}
	return 50 * time.Millisecond
}

// RoundTrip implements http.RoundTripper.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	fault := t.next()
	switch fault {
	case None:
		return t.base().RoundTrip(req)
	case Refuse:
		drainRequest(req)
		return nil, fmt.Errorf("faultio: %s %s: %w (connection refused)", req.Method, req.URL.Path, ErrInjected)
	case Status500:
		drainRequest(req)
		return &http.Response{
			Status:     "500 Internal Server Error",
			StatusCode: http.StatusInternalServerError,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
			Body:       io.NopCloser(strings.NewReader("faultio: injected internal error\n")),
			Request:    req,
		}, nil
	case SlowLoris:
		select {
		case <-time.After(t.delay()):
		case <-req.Context().Done():
			drainRequest(req)
			return nil, req.Context().Err()
		}
		return t.base().RoundTrip(req)
	}

	resp, err := t.base().RoundTrip(req)
	if err != nil {
		return resp, err
	}
	switch fault {
	case TruncateBody, FlipBody:
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		switch fault {
		case TruncateBody:
			body = body[:len(body)/2]
		case FlipBody:
			if len(body) > 0 {
				// Land in the second half so the flip hits the payload,
				// not the envelope preamble.
				body[len(body)/2+len(body)/4] ^= 0x01
			}
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		return resp, nil
	case StallBody:
		resp.Body = &stallBody{rc: resp.Body, delay: t.delay(), done: req.Context().Done()}
		return resp, nil
	}
	return resp, nil
}

// drainRequest consumes and closes the request body on paths that never
// reach the base transport, as http.RoundTripper implementations must.
func drainRequest(req *http.Request) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
}

// stallBody sleeps once before the first read, honoring the request
// context so a per-attempt deadline can cut the stall short.
type stallBody struct {
	rc      io.ReadCloser
	delay   time.Duration
	done    <-chan struct{}
	stalled bool
}

func (s *stallBody) Read(p []byte) (int, error) {
	if !s.stalled {
		s.stalled = true
		select {
		case <-time.After(s.delay):
		case <-s.done:
			return 0, fmt.Errorf("faultio: stalled body: %w", ErrInjected)
		}
	}
	return s.rc.Read(p)
}

func (s *stallBody) Close() error { return s.rc.Close() }
