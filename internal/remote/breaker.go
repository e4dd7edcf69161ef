package remote

import (
	"sync"
	"time"
)

// breakerState is a replica circuit breaker's lifecycle position.
type breakerState int

const (
	// breakerClosed: healthy, requests flow.
	breakerClosed breakerState = iota
	// breakerOpen: tripped after Threshold consecutive failures; requests
	// are parked until Cooldown elapses.
	breakerOpen
	// breakerHalfOpen: cooldown elapsed, exactly one probe request is
	// allowed through; its outcome decides closed vs open again.
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is a consecutive-failure circuit breaker guarding one replica.
// It parks a flapping replica for a cooldown instead of letting every
// search pay its timeout, then re-admits it through a single half-open
// probe (either a real search attempt or the background health probe).
//
// The half-open probe slot is a lease: acquire hands it out and every
// admitted probe MUST settle it through exactly one of success, fail, or
// abandon. Without abandon, a probe whose outcome is discarded (the
// request was never sent, or its caller gave up) would leave the breaker
// half-open with the slot consumed forever — the replica blackholed until
// restart.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // test seam; time.Now when nil

	mu       sync.Mutex
	state    breakerState
	probing  bool      // half-open probe slot is leased out
	failures int       // consecutive, in closed state
	openedAt time.Time // when the breaker last tripped
	onOpen   func()    // closed/half-open → open transition hook (metrics)
	onState  func(breakerState)
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	return &breaker{threshold: threshold, cooldown: cooldown}
}

func (b *breaker) clock() time.Time {
	if b.now != nil {
		return b.now()
	}
	return time.Now()
}

// acquire reports whether a request may be sent to this replica right
// now. probe is true when the admission consumed the single half-open
// probe slot (open→half-open transition, or a half-open breaker whose
// previous probe was abandoned); the caller then owns the slot and must
// settle it with success, fail, or abandon — never drop it. Callers must
// therefore only acquire for a request they will actually send.
func (b *breaker) acquire() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if b.clock().Sub(b.openedAt) >= b.cooldown {
			b.setState(breakerHalfOpen)
			b.probing = true
			return true, true
		}
		return false, false
	case breakerHalfOpen:
		if !b.probing {
			// The previous probe was abandoned without an outcome; lease
			// the slot to the next caller instead of wedging.
			b.probing = true
			return true, true
		}
		// One probe is already in flight; hold further traffic.
		return false, false
	}
	return false, false
}

// success records a request that completed cleanly.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	if b.state != breakerClosed {
		b.setState(breakerClosed)
	}
}

// fail records a failed request.
func (b *breaker) fail() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.trip()
		}
	case breakerHalfOpen:
		// The probe failed: back to open, restart the cooldown.
		b.trip()
	case breakerOpen:
		// A request that was already in flight when the breaker tripped;
		// nothing to update.
	}
}

// abandon releases a half-open probe slot whose request recorded no
// outcome because the caller gave up. The breaker stays half-open with
// the slot free, so the next acquire (search attempt or background probe)
// retries immediately.
func (b *breaker) abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
	}
}

// trip moves to open. Callers hold b.mu.
func (b *breaker) trip() {
	b.openedAt = b.clock()
	b.failures = 0
	b.probing = false
	b.setState(breakerOpen)
	if b.onOpen != nil {
		b.onOpen()
	}
}

// setState transitions state and fires the state hook. Callers hold b.mu.
func (b *breaker) setState(s breakerState) {
	b.state = s
	if b.onState != nil {
		b.onState(s)
	}
}

// snapshot returns the current state without transitions.
func (b *breaker) snapshot() (breakerState, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.failures
}
