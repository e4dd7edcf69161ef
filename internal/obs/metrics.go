package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is usable,
// but counters are normally obtained from a Registry so they appear on
// /metrics.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta. Negative deltas are ignored: counters only go up.
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// raise lifts the count to total if it is below it: a counter that mirrors
// a monotone total kept elsewhere. Racing calls leave the larger total.
func (c *Counter) raise(total int64) {
	for {
		old := c.v.Load()
		if total <= old || c.v.CompareAndSwap(old, total) {
			return
		}
	}
}

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; safe for concurrent use).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets (cumulative "le" upper
// bounds, Prometheus-style) and tracks their sum. Observe is lock-free; the
// bucket layout is immutable after construction.
type Histogram struct {
	upper   []float64 // ascending finite upper bounds; +Inf is implicit
	counts  []atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
}

func newHistogram(buckets []float64) *Histogram {
	upper := make([]float64, len(buckets))
	copy(upper, buckets)
	sort.Float64s(upper)
	return &Histogram{upper: upper, counts: make([]atomic.Int64, len(upper)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v; len(upper) = +Inf
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Buckets returns the finite upper bounds of the bucket layout.
func (h *Histogram) Buckets() []float64 {
	out := make([]float64, len(h.upper))
	copy(out, h.upper)
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket containing the target rank, the same estimate
// Prometheus' histogram_quantile computes. Samples in the +Inf bucket clamp
// to the largest finite bound. Returns NaN when nothing was observed.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.upper) { // +Inf bucket
				return h.upper[len(h.upper)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.upper[i-1]
			}
			hi := h.upper[i]
			return lo + (hi-lo)*(rank-float64(cum))/float64(n)
		}
		cum += n
	}
	return h.upper[len(h.upper)-1]
}

// snapshot returns cumulative bucket counts (one per finite bound plus
// +Inf), the sum, and the count. Buckets are read individually, so a
// snapshot taken during concurrent Observes may be off by in-flight
// samples — acceptable for scrapes.
func (h *Histogram) snapshot() (cumulative []int64, sum float64, count int64) {
	cumulative = make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		cumulative[i] = cum
	}
	return cumulative, h.Sum(), h.Count()
}

// ExponentialBuckets returns n upper bounds starting at start and growing
// by factor: start, start·factor, start·factor², …
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExponentialBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default layout for request/stage durations in
// seconds: 100µs … ~25s in 2.5× steps (documented in docs/OBSERVABILITY.md).
var LatencyBuckets = ExponentialBuckets(100e-6, 2.5, 14)

// CountBuckets is the default layout for size-like observations (candidate
// set sizes, result counts): 1 … 4^9 ≈ 262k in 4× steps.
var CountBuckets = ExponentialBuckets(1, 4, 10)

// Labels attaches dimension values to a metric. Each distinct label
// combination is its own time series on /metrics.
type Labels map[string]string

// metricKind discriminates family types; mixing kinds under one name panics.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// series is one (family, label-set) time series.
type series struct {
	labels string // rendered `key="value",…` body, "" when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the series sharing a metric name (one HELP/TYPE block).
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64
	series  map[string]*series
	order   []string // label keys in registration order
}

// Registry is a set of named metrics with Prometheus text exposition.
// Handle creation (Counter/Gauge/Histogram) is mutex-guarded and idempotent
// — the same name+labels returns the same handle — while the handles
// themselves update lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry: the search pipeline's standard
// metrics (std.go) live here, and internal/server exposes it on /metrics.
var Default = NewRegistry()

func (r *Registry) familyLocked(name, help string, kind metricKind, buckets []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets,
			series: make(map[string]*series)}
		r.families[name] = f
		r.names = append(r.names, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, kind))
	}
	return f
}

func (f *family) seriesLocked(labels Labels) *series {
	key := renderLabels(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		switch f.kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = newHistogram(f.buckets)
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter returns (creating if needed) the counter name{labels}.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.familyLocked(name, help, kindCounter, nil).seriesLocked(labels).c
}

// Gauge returns (creating if needed) the gauge name{labels}.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.familyLocked(name, help, kindGauge, nil).seriesLocked(labels).g
}

// Histogram returns (creating if needed) the histogram name{labels} with
// the given finite bucket upper bounds (+Inf is implicit). The layout is
// fixed by the first registration of the name; later calls reuse it.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.familyLocked(name, help, kindHistogram, buckets).seriesLocked(labels).h
}

// renderLabels renders a deterministic `k="v",…` body with keys sorted and
// values escaped per the Prometheus text format.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
