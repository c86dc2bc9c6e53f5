package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) of xs by nearest rank.
// xs is not modified. An empty sample has no percentile; it returns 0 so a
// caller that forgot to check the sample floor prints an obviously wrong
// number instead of panicking.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// timedOps is one direction of a timed phase: each op's latency and the
// instant it started, in the order the ops were handed out, and when the
// last one returned.
type timedOps struct {
	ms    []float64 // latency per op
	at    []float64 // seconds from phase start to op start (to due time, open loop)
	endAt float64   // seconds from phase start to the last return
}

// steady drops the warm-up prefix (see warmShare) and returns what is left
// and the index it starts at.
func (t *timedOps) steady() (*timedOps, int) {
	from := int(float64(len(t.ms)) * warmShare)
	return &timedOps{ms: t.ms[from:], at: t.at[from:], endAt: t.endAt}, from
}

// sliceBounds cuts n ops into k equal runs (the last takes the remainder).
func sliceBounds(n, k int) [][2]int {
	if k < 1 || n < k {
		k = 1
	}
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{i * (n / k), (i + 1) * (n / k)}
	}
	out[k-1][1] = n
	return out
}

// The three figures a direction reports are each a median over time
// slices of the phase, not one number over all of it: a stall — a GC
// pause, a neighbour on the sandbox taking a core for a second — lands in
// one or two slices and does not decide the figure, while anything that is
// really there shows in every slice.

// rate is work per second: per slice, the work of its ops over the time
// from its first op's start to the next slice's (the phase's end for the
// last); the median slice is reported. work gives op i's weight.
func (t *timedOps) rate(work func(i int) float64) float64 {
	var rates []float64
	for _, b := range sliceBounds(len(t.ms), rateSlices) {
		end := t.endAt
		if b[1] < len(t.at) {
			end = t.at[b[1]]
		}
		var w float64
		for i := b[0]; i < b[1]; i++ {
			w += work(i)
		}
		if d := end - t.at[b[0]]; d > 0 {
			rates = append(rates, w/d)
		}
	}
	return median(rates)
}

// p50 is the median of the slices' median latencies.
func (t *timedOps) p50() float64 {
	var meds []float64
	for _, b := range sliceBounds(len(t.ms), rateSlices) {
		meds = append(meds, median(t.ms[b[0]:b[1]]))
	}
	return median(meds)
}

// p99 is the median of the slices' p99 latencies. Slices hold at least
// p99SliceMin ops each, so a sample too small for two of them gets the
// plain p99.
func (t *timedOps) p99() float64 {
	var tails []float64
	for _, b := range sliceBounds(len(t.ms), min(p99Slices, len(t.ms)/p99SliceMin)) {
		tails = append(tails, percentile(t.ms[b[0]:b[1]], 0.99))
	}
	return median(tails)
}

// meetsFloor reports whether a timed direction collected enough samples
// for its p99 to mean anything.
func meetsFloor(n int) bool { return n >= sampleFloor }

// ratio is a/b with 0 for an empty base, for hit ratios and shares whose
// denominator is legitimately zero on workloads that bypass the layer.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
