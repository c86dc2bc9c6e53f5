package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"press/internal/roadnet"
	"press/internal/spindex"
)

// span is one timed interval at a layer boundary. Spans are recorded by
// the benchmark's own wrappers (HTTP handler wrappers, direct calls into
// layer functions); the program under test is not instrumented.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since tracer start
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the span list, -1 for an op
	Op     int32  `json:"op"`     // ops share one id across their spans

	// Shortest-path probes made while this span was the innermost open one.
	// Millions of probes cannot each be a span; they are summed here and
	// written out as one aggregate child.
	Probes  atomic.Int64 `json:"-"`
	ProbeNs atomic.Int64 `json:"-"`

	parent *span // nil for an op
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer holds the spans of one traced run in memory; they are written out
// when the workload ends. A traced run has a single client, so at most one
// op is in flight and spans nest by time.
type tracer struct {
	t0 time.Time
	on atomic.Bool // spans and probe timing are recorded only while set

	mu    sync.Mutex
	spans []*span

	op  atomic.Int32 // span index of the op in flight, -1 none
	hop atomic.Int32 // span index of the router handler in flight, -1 none
	ops atomic.Int32 // op ids handed out

	cur atomic.Pointer[span] // innermost open span: where SP probes are charged
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.op.Store(-1)
	t.hop.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent and makes it the innermost one.
func (t *tracer) begin(name string, parent int32) int32 {
	s := &span{Name: name, Start: t.now(), Parent: parent, Op: t.ops.Load()}
	t.mu.Lock()
	if parent >= 0 {
		s.parent = t.spans[parent]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	t.cur.Store(s)
	return i
}

// end closes span i. The innermost pointer falls back to i's parent unless
// a sibling opened meanwhile (two nodes answering one fleet query).
func (t *tracer) end(i int32) {
	t.mu.Lock()
	s := t.spans[i]
	t.mu.Unlock()
	s.End = t.now()
	t.cur.CompareAndSwap(s, s.parent)
}

// beginOp opens the client-side span of one op; every span until endOp
// carries its id.
func (t *tracer) beginOp(name string) int32 {
	t.ops.Add(1)
	i := t.begin(name, -1)
	t.op.Store(i)
	return i
}

func (t *tracer) endOp(i int32) {
	t.end(i)
	t.op.Store(-1)
}

// traced reports whether op i of a phase falls in a traced block: a traced
// run switches tracing on and off every traceBlock ops, so that the traced
// and the untraced ops it compares meet the same store, caches and fleet.
func traced(i int) bool { return (i/traceBlock)%2 == 1 }

// block switches tracing to what op i's block says and reports it. Only
// the single client of a traced run calls it, between ops.
func (t *tracer) block(i int) bool {
	t.on.Store(traced(i))
	return traced(i)
}

// probe charges one shortest-path probe to the innermost open span.
func (t *tracer) probe(ns int64) {
	if s := t.cur.Load(); s != nil {
		s.Probes.Add(1)
		s.ProbeNs.Add(ns)
	}
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of that
// interval its children cover (children may overlap each other or run past
// the parent; only the covered part of the parent counts) and minus its
// aggregated probe time.
func selfTimes(spans []*span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered - s.ProbeNs.Load()
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// spanFile is what trace_<workload>.json holds.
type spanFile struct {
	Meta  runMeta    `json:"meta"`
	Spans []spanJSON `json:"spans"`
}

type spanJSON struct {
	*span
	Aggregate bool  `json:"aggregate,omitempty"` // sum of many probes, not one interval
	Count     int64 `json:"count,omitempty"`
}

// write stores the spans, each probe aggregate as a child of the span it
// was charged to.
func (t *tracer) write(path string, meta runMeta) error {
	spans := t.snapshot()
	out := spanFile{Meta: meta, Spans: make([]spanJSON, 0, len(spans))}
	for _, s := range spans {
		out.Spans = append(out.Spans, spanJSON{span: s})
	}
	for i, s := range spans {
		if n := s.Probes.Load(); n > 0 {
			agg := &span{Name: "spindex.probe", Start: s.Start, End: s.Start + s.ProbeNs.Load(), Parent: int32(i), Op: s.Op}
			out.Spans = append(out.Spans, spanJSON{span: agg, Aggregate: true, Count: n})
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// countingSP decorates the program's shortest-path source: every probe is
// counted and timed against the innermost open span. It is installed only
// in traced runs; untraced runs hand the program the bare source.
type countingSP struct {
	spindex.SP
	t *tracer
}

func (c countingSP) SPEnd(src, dst roadnet.EdgeID) roadnet.EdgeID {
	if !c.t.on.Load() {
		return c.SP.SPEnd(src, dst)
	}
	t0 := time.Now()
	r := c.SP.SPEnd(src, dst)
	c.t.probe(int64(time.Since(t0)))
	return r
}

func (c countingSP) Dist(src, dst roadnet.EdgeID) float64 {
	if !c.t.on.Load() {
		return c.SP.Dist(src, dst)
	}
	t0 := time.Now()
	r := c.SP.Dist(src, dst)
	c.t.probe(int64(time.Since(t0)))
	return r
}

func (c countingSP) GapDist(src, dst roadnet.EdgeID) float64 {
	if !c.t.on.Load() {
		return c.SP.GapDist(src, dst)
	}
	t0 := time.Now()
	r := c.SP.GapDist(src, dst)
	c.t.probe(int64(time.Since(t0)))
	return r
}

func (c countingSP) Path(src, dst roadnet.EdgeID) []roadnet.EdgeID {
	if !c.t.on.Load() {
		return c.SP.Path(src, dst)
	}
	t0 := time.Now()
	r := c.SP.Path(src, dst)
	c.t.probe(int64(time.Since(t0)))
	return r
}

// endpointOf names the served endpoint of a request the way /v1/stats
// does, or "" for traffic that is not part of an op (probes, stats).
func endpointOf(r *http.Request) string {
	name, ok := strings.CutPrefix(r.URL.Path, "/v1/")
	switch {
	case !ok || name == "stats":
		return ""
	case name == "ingest":
		return "ingest_wire"
	}
	return name
}

// wrapNode records a span around every op request a node's handler
// serves, under the router's span when one is in flight and the client's
// op span otherwise.
func (t *tracer) wrapNode(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := endpointOf(r)
		if name == "" || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent := t.hop.Load()
		if parent < 0 {
			parent = t.op.Load()
		}
		i := t.begin("node."+name, parent)
		h.ServeHTTP(w, r)
		t.end(i)
	})
}

// wrapRouter records a span around every op request the router serves.
func (t *tracer) wrapRouter(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := endpointOf(r)
		if name == "" || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		i := t.begin("router."+name, t.op.Load())
		t.hop.Store(i)
		h.ServeHTTP(w, r)
		t.hop.Store(-1)
		t.end(i)
	})
}
