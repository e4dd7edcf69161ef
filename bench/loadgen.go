package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"thetis/internal/core"
)

// loadgen issues the schedule's queries in a closed loop: each client
// waits for its ranking before it sends its next query, which is how an
// analyst or a notebook uses Thetis. Passes share one position in the
// schedule, so a later pass continues where the earlier one stopped.
type loadgen struct {
	order      []int
	pos        atomic.Int64
	maxClients int // most client goroutines any pass has started
}

// loadResult is what one pass measured.
type loadResult struct {
	latencies []time.Duration // one per search, failed ones included
	gaps      []time.Duration // time a client spent between two calls: the generator's own cost
	handoffs  []time.Duration // time each after hook took, which is in neither of the above
	elapsed   time.Duration
	failed    int
	firstErr  error
}

// add appends another pass's measurements.
func (r *loadResult) add(o loadResult) {
	r.latencies = append(r.latencies, o.latencies...)
	r.gaps = append(r.gaps, o.gaps...)
	r.handoffs = append(r.handoffs, o.handoffs...)
	r.elapsed += o.elapsed
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// clientsFor caps a workload's client count at the CPU count.
func clientsFor(asked int) int {
	if n := runtime.NumCPU(); asked <= 0 || asked > n {
		return n
	}
	return asked
}

// run drives search from clients goroutines for window. check, when
// non-nil, judges each ranking after its latency has been taken. after,
// when non-nil, runs once the client holds its ranking and before it sends
// its next query: what the client does there is part of the closed loop,
// so it lowers throughput, but it is no part of a search's latency.
func (g *loadgen) run(clients int, window time.Duration, search searchFunc, check func(qi int, got []core.Result) bool, after func()) loadResult {
	clients = clientsFor(clients)
	g.maxClients = max(g.maxClients, clients)
	parts := make([]loadResult, clients)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(out *loadResult) {
			defer wg.Done()
			out.latencies = make([]time.Duration, 0, 1<<16)
			out.gaps = make([]time.Duration, 0, 1<<16)
			var prevEnd time.Time
			for {
				callStart := time.Now()
				if !callStart.Before(deadline) {
					return
				}
				if !prevEnd.IsZero() {
					out.gaps = append(out.gaps, callStart.Sub(prevEnd))
				}
				n := g.pos.Add(1)
				qi := g.order[int(n)%len(g.order)]
				got, err := search(qi, n)
				prevEnd = time.Now()
				out.latencies = append(out.latencies, prevEnd.Sub(callStart))
				if after != nil {
					end := prevEnd
					after()
					prevEnd = time.Now()
					out.handoffs = append(out.handoffs, prevEnd.Sub(end))
				}
				if err != nil || (check != nil && !check(qi, got)) {
					out.failed++
					if err != nil && out.firstErr == nil {
						out.firstErr = err
					}
				}
			}
		}(&parts[cl])
	}
	wg.Wait()
	var total loadResult
	for _, p := range parts {
		total.add(p)
	}
	total.elapsed = time.Since(start)
	return total
}
