package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thetis/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around
// that layer's public entry point. Spans of one request share Req; Parent
// is the ID of the span that caused this one (0 for a request's root).
type span struct {
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef names a span as the parent of spans started further down: it
// travels in a context inside the process and in two headers across HTTP.
type spanRef struct{ req, id int64 }

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// tracer keeps every span of a traced pass in memory, to be summarised and
// written out when the pass ends. A nil *tracer is never used: untraced
// passes run assemblies that have no wrappers at all.
type tracer struct {
	t0     time.Time
	next   atomic.Int64
	mu     sync.Mutex
	spans  []span
	counts map[string]*tally
}

// tally accumulates a count observed at a span boundary (candidates, σ
// lookups, bytes).
type tally struct {
	sum float64
	n   int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<17), counts: map[string]*tally{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) begin(parent spanRef, name string) openSpan {
	return openSpan{t, span{Req: parent.req, ID: t.next.Add(1), Parent: parent.id, Name: name, Start: t.now()}}
}

func (o *openSpan) ref() spanRef { return spanRef{o.s.Req, o.s.ID} }

func (o *openSpan) end() {
	o.s.End = o.t.now()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// add records a span whose bounds the callee reported rather than the
// benchmark observed: a stage of Stats.Trace laid inside its caller's span.
func (t *tracer) add(parent spanRef, name string, start, end int64) spanRef {
	s := span{Req: parent.req, ID: t.next.Add(1), Parent: parent.id, Name: name, Start: start, End: end}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return spanRef{s.Req, s.ID}
}

func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	c := t.counts[name]
	if c == nil {
		c = &tally{}
		t.counts[name] = c
	}
	c.sum += v
	c.n++
	t.mu.Unlock()
}

func (t *tracer) countMean(name string) float64 {
	if c := t.counts[name]; c != nil && c.n > 0 {
		return c.sum / float64(c.n)
	}
	return 0
}

func (t *tracer) countSum(name string) float64 {
	if c := t.counts[name]; c != nil {
		return c.sum
	}
	return 0
}

// stages lays the stages a search returned in Stats.Trace inside the span
// that timed the search, so the part of that span no stage accounts for
// shows as its self time. The stages' own start times are not returned, so
// they are placed back to back from the span's start; only their lengths
// matter for self time. engineTotal is Stats.TotalTime.
func (t *tracer) stages(sp *openSpan, tr *obs.Trace, engineTotal time.Duration) {
	wall := func(name string) int64 {
		if st := tr.Stage(name); st != nil {
			return int64(st.Wall)
		}
		return 0
	}
	at := sp.s.Start
	if tr.Stage("probe") != nil {
		probe, vote := wall("probe"), wall("vote")
		pre := t.add(sp.ref(), "prefilter.candidates", at, at+probe+vote)
		t.add(pre, "prefilter.probe", at, at+probe)
		t.add(pre, "prefilter.vote", at+probe, at+probe+vote)
		at += probe + vote
	}
	eng := t.add(sp.ref(), "engine.search", at, at+int64(engineTotal))
	t.add(eng, "engine.score", at, at+wall("score"))
	t.add(eng, "engine.rank", at+wall("score"), at+wall("score")+wall("rank"))
}

// baseName strips a span's index suffix: leg[1] -> leg.
func baseName(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		return name[:i]
	}
	return name
}

// summary holds, per span name, every span's duration and self time in
// milliseconds, and the request totals needed for the unattributed share.
type summary struct {
	dur, self map[string][]float64
	rootTotal float64         // summed duration of root spans, ms
	kids      map[int64][]int // span ID -> indices of its children in spans
	spans     []span
}

// summarize computes self times: a span's duration minus the part of its
// interval that its child spans cover.
func (t *tracer) summarize() *summary {
	s := &summary{
		dur: map[string][]float64{}, self: map[string][]float64{},
		kids: map[int64][]int{}, spans: t.spans,
	}
	for i, sp := range t.spans {
		if sp.Parent != 0 {
			s.kids[sp.Parent] = append(s.kids[sp.Parent], i)
		}
	}
	const ms = float64(time.Millisecond)
	for _, sp := range t.spans {
		kids := s.kids[sp.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, edge := int64(0), sp.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, edge), min(t.spans[k].End, sp.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		name := baseName(sp.Name)
		d := float64(sp.End - sp.Start)
		s.dur[name] = append(s.dur[name], d/ms)
		s.self[name] = append(s.self[name], (d-float64(covered))/ms)
		if sp.Parent == 0 {
			s.rootTotal += d / ms
		}
	}
	return s
}

// p50 of a span name's durations (ms); 0 when the name was never recorded.
func (s *summary) durP50(name string) float64  { return percentileOf(s.dur[name], 50).Value }
func (s *summary) selfP50(name string) float64 { return percentileOf(s.self[name], 50).Value }

// childDurations returns, for every span called name, the durations (ms)
// of its direct children whose base name is child.
func (s *summary) childDurations(name, child string) [][]float64 {
	var out [][]float64
	for _, sp := range s.spans {
		if baseName(sp.Name) != name {
			continue
		}
		var ds []float64
		for _, k := range s.kids[sp.ID] {
			if baseName(s.spans[k].Name) == child {
				ds = append(ds, float64(s.spans[k].End-s.spans[k].Start)/float64(time.Millisecond))
			}
		}
		out = append(out, ds)
	}
	return out
}

// longestOverlapping returns the duration (ms) of the longest span called
// name whose interval overlaps any span whose base name is in others.
func (s *summary) longestOverlapping(name string, others ...string) float64 {
	var blockers []span
	for _, sp := range s.spans {
		for _, o := range others {
			if baseName(sp.Name) == o {
				blockers = append(blockers, sp)
			}
		}
	}
	longest := int64(0)
	for _, sp := range s.spans {
		if baseName(sp.Name) != name || sp.End-sp.Start <= longest {
			continue
		}
		for _, b := range blockers {
			if sp.Start < b.End && b.Start < sp.End {
				longest = sp.End - sp.Start
				break
			}
		}
	}
	return float64(longest) / float64(time.Millisecond)
}

// write stores the spans as JSON lines, followed by one line of counts.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	counts := map[string]map[string]float64{}
	for name, c := range t.counts {
		counts[name] = map[string]float64{"sum": c.sum, "n": float64(c.n)}
	}
	if err := enc.Encode(map[string]any{"counts": counts}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
