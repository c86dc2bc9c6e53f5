package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose; must not be modified
	for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.99, 5}, {0.2, 1}, {0.21, 2}, {1, 5}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
}

func TestSampleFloor(t *testing.T) {
	if meetsFloor(sampleFloor-1) || !meetsFloor(sampleFloor) {
		t.Error("floor is not at sampleFloor")
	}
}

// steadyOps is n ops one second apart with latency 1, except what tweak
// changes.
func steadyOps(n int, tweak func(ms []float64)) *timedOps {
	ops := &timedOps{ms: make([]float64, n), at: make([]float64, n), endAt: float64(n)}
	for i := range ops.ms {
		ops.ms[i], ops.at[i] = 1, float64(i)
	}
	if tweak != nil {
		tweak(ops.ms)
	}
	return ops
}

// One slice with a stall must not decide any figure; a tail present in
// every slice must show.
func TestSliceMediansIgnoreOneStall(t *testing.T) {
	n := p99Slices * p99SliceMin
	tail := func(ms []float64) {
		for i := range ms {
			if i%50 == 0 {
				ms[i] = 10 // 2% of every slice: the real tail
			}
		}
	}
	flat := steadyOps(n, tail)
	stalled := steadyOps(n, func(ms []float64) {
		tail(ms)
		for i := 0; i < 150; i++ {
			ms[i] = 1000 // a stall confined to the first slice of either kind
		}
	})
	for i := 150; i < n; i++ { // the stalled ops took 150 extra seconds of wall time
		stalled.at[i] += 150
	}
	stalled.endAt += 150
	if got := flat.p99(); got != 10 {
		t.Errorf("tail in every slice: p99 %v, want 10", got)
	}
	if got := stalled.p99(); got != 10 {
		t.Errorf("stall in one slice moved p99 to %v", got)
	}
	if got := percentile(stalled.ms, 0.99); got != 1000 {
		t.Errorf("plain p99 of the stalled sample is %v; the test no longer shows the difference", got)
	}
	if got := stalled.p50(); got != 1 {
		t.Errorf("stall moved p50 to %v", got)
	}
	one := func(int) float64 { return 1 }
	if got := flat.rate(one); got != 1 {
		t.Errorf("rate %v, want 1 op/s", got)
	}
	if got := stalled.rate(one); got != 1 {
		t.Errorf("stall in one slice moved the rate to %v", got)
	}
	// Too few ops for two p99 slices: the plain p99.
	small := steadyOps(p99SliceMin+100, func(ms []float64) { ms[3] = 7 })
	if got, want := small.p99(), percentile(small.ms, 0.99); got != want {
		t.Errorf("small sample: p99 %v, plain %v", got, want)
	}
}

func TestSteadyDropsWarmUp(t *testing.T) {
	ops, from := steadyOps(10, func(ms []float64) { ms[0] = 99 }).steady()
	if want := int(10 * warmShare); from != want || len(ops.ms) != 10-want || ops.at[0] != float64(want) || ops.endAt != 10 {
		t.Errorf("steady() = %+v from op %d", ops, from)
	}
	if ops, _ := (&timedOps{}).steady(); len(ops.ms) != 0 {
		t.Errorf("empty phase: %v", ops.ms)
	}
}

func mkSpan(name string, start, end int64, parent int32) *span {
	return &span{Name: name, Start: start, End: end, Parent: parent}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []*span{
		mkSpan("op", 0, 100, -1),         // 0
		mkSpan("a", 10, 30, 0),           // 1: child
		mkSpan("b", 30, 50, 0),           // 2: adjacent to a
		mkSpan("c", 45, 70, 0),           // 3: overlaps b by 5
		mkSpan("d", 90, 120, 0),          // 4: runs past the parent
		mkSpan("a.inner", 12, 20, 1),     // 5: nested in a
		mkSpan("a.inner2", 20, 28, 1),    // 6: adjacent, nested in a
		mkSpan("probe.owner", 0, 50, -1), // 7: only aggregated probes beneath it
	}
	spans[7].ProbeNs.Store(20)
	self := selfTimes(spans)
	want := []int64{
		100 - (20 + 20 + 20 + 10), // a, b, c's part beyond b, d's part inside the parent
		20 - 16,
		20, 25, 30, 8, 8,
		50 - 20,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestTracerChargesProbesToInnermostSpan(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	op := tr.beginOp("op.read.whereat")
	h := tr.begin("node.whereat", op)
	tr.probe(5)
	tr.probe(7)
	tr.end(h)
	tr.probe(3) // back in the op span
	tr.endOp(op)
	tr.probe(100) // no span open: dropped
	s := tr.snapshot()
	if got := s[h].Probes.Load(); got != 2 || s[h].ProbeNs.Load() != 12 {
		t.Errorf("handler span has %d probes, %d ns", got, s[h].ProbeNs.Load())
	}
	if s[op].Probes.Load() != 1 || s[op].ProbeNs.Load() != 3 {
		t.Errorf("op span has %d probes", s[op].Probes.Load())
	}
	if s[h].Op != s[op].Op || s[h].Parent != op {
		t.Errorf("handler span not tied to its op: %+v", s[h])
	}
}

func TestTraceBlocksAlternate(t *testing.T) {
	on := 0
	for i := 0; i < 10*traceBlock; i++ {
		if traced(i) {
			on++
		}
	}
	if on != 5*traceBlock || traced(0) || !traced(traceBlock) {
		t.Errorf("%d of %d ops traced", on, 10*traceBlock)
	}
}

// A server that stalls once: the ops queued behind the stall must carry its
// wait in their latency (they are timed from when they were due), and the
// generator's own lateness must stay out of it.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		rate  = 200.0 // one op every 5 ms
		stall = 60 * time.Millisecond
		ops   = 30
	)
	ol := &openLoop{rate: rate}
	n := 0
	ol.run(func() bool { return n >= ops }, func(i int) {
		n++
		if i == 5 {
			time.Sleep(stall) // the deliberately stalled server
		}
	})
	if len(ol.ms) != ops || len(ol.lateMs) != ops {
		t.Fatalf("%d latencies, %d lateness samples for %d ops", len(ol.ms), len(ol.lateMs), ops)
	}
	if ol.ms[5] < 55 {
		t.Errorf("stalled op took %v ms", ol.ms[5])
	}
	// Op 6 was due 5 ms after op 5 but could only go out when op 5
	// returned: about 55 ms of queueing, none of it the generator's.
	if ol.ms[6] < 45 {
		t.Errorf("op behind the stall shows %.1f ms; the wait was dropped", ol.ms[6])
	}
	if ol.lateMs[6] > 10 {
		t.Errorf("op behind the stall is charged %.1f ms of generator lateness", ol.lateMs[6])
	}
	// The backlog drains: by the end ops are on schedule again.
	if last := ol.ms[ops-1]; last > 20 {
		t.Errorf("last op still %.1f ms behind; the schedule never recovered", last)
	}
	// A closed loop would have reported ~0 for every op but the stalled one.
	late := 0
	for _, ms := range ol.ms[6:] {
		if ms > 5 {
			late++
		}
	}
	if late < 5 {
		t.Errorf("only %d ops behind the stall show it", late)
	}
}

func TestZipfPickerDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []int {
		p := newZipfPicker(seed, liveZipfS, liveHotSet)
		out := make([]int, 200)
		for i := range out {
			out[i] = p.next()
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different ranks")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same ranks")
	}
	zero := 0
	for _, r := range a {
		if r < 0 || r >= liveHotSet {
			t.Fatalf("rank %d outside [0,%d)", r, liveHotSet)
		}
		if r == 0 {
			zero++
		}
	}
	if zero < 20 { // s = 1.2 puts roughly a quarter of the mass on rank 0
		t.Errorf("rank 0 drawn %d of 200 times; not skewed", zero)
	}
	if u01(1, 2, 3) != u01(1, 2, 3) || u01(1, 2, 3) == u01(1, 2, 4) {
		t.Error("u01 is not a pure function of its arguments")
	}
}

func TestNormalizeArgs(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"--trace"}, []string{"--trace=1"}},
		{[]string{"-trace", "-seed", "3"}, []string{"--trace=1", "-seed", "3"}},
		{[]string{"--workload", "x", "--trace", "0"}, []string{"--workload", "x", "--trace", "0"}},
		{[]string{"--trace", "1", "--seed", "2"}, []string{"--trace", "1", "--seed", "2"}},
	} {
		if got := normalizeArgs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("normalizeArgs(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// BENCHMARK.json is written by hand; the tables in config.go are what the
// program prints. They must say the same thing, within the driver's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	_ = json.Unmarshal(raw, &keys)
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(keys))
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths %v", doc.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || len(w.Why) == 0 || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %d: %q (why: %d chars)", i, w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in config.go", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, config.go %+v", kind, i, m, d)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s %q: name or unit outside the driver's limits, or used twice", kind, m.Name)
			}
			seen[m.Name] = true
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %q: bound %v, config.go %v", kind, m.Name, m.Bound, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %q carries a bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(doc.PerLayer))
	}
}

// Any stretch of consecutive ops holds each share of a mix in proportion,
// wherever it starts: that is what kindShare is for.
func TestKindShareSpreadsEvenly(t *testing.T) {
	const stretch = 100
	for _, from := range []int{0, 7, 12345, 1 << 20} {
		for _, share := range []float64{0.1, 0.25, 0.6} {
			n := 0
			for i := from; i < from+stretch; i++ {
				if u := kindShare(i); u < 0 || u >= 1 {
					t.Fatalf("kindShare(%d) = %v", i, u)
				} else if u < share {
					n++
				}
			}
			if want := share * stretch; math.Abs(float64(n)-want) > 2 {
				t.Errorf("ops %d..%d: %d under %v, want %v within 2", from, from+stretch, n, share, want)
			}
		}
	}
}
