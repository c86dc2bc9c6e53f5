package core

import (
	"math"

	"press/internal/traj"
)

// OnlineBTC is the Bounded Temporal Compression of §4.2 (Algorithm 3),
// written as a stream: push (d, t) tuples as they are sampled. It is an
// opening-window simplification of the (d, t) polyline whose per-window
// feasibility is tracked with an angular range, so each tuple costs O(1)
// and each retained tuple is final the moment the range collapses.
//
// The angular range is represented as a slope interval [lo, hi] in the d-t
// plane (distance is non-decreasing and time strictly increasing, so every
// feasible chord has slope in [0, +inf]):
//
//   - the TSND bound τ requires the chord to cross the vertical segment of
//     half-height τ centred on each skipped point (Fig. 9(a)), contributing
//     the interval [(Δd-τ)/Δt, (Δd+τ)/Δt];
//   - the NSTD bound η requires the chord to cross the horizontal segment of
//     half-width η (Fig. 9(b)), contributing [Δd/(Δt+η), Δd/(Δt-η)] (upper
//     bound +inf when Δt ≤ η) for points strictly above the anchor.
//
// Points at the anchor's own distance (Δd = 0, a stopped vehicle) get no
// finite NSTD chord; instead the plateau-exit rule applies: once some later
// point rises above the plateau, the compressed chord leaves the plateau
// immediately after the anchor, so the plateau may last at most η beyond the
// anchor or the window must close. This keeps the exact NSTD (first-arrival
// semantics, see the NSTD function) within η in every case.
//
// Tuples must satisfy Temporal.Validate: finite, strictly increasing T,
// non-decreasing D (OnlineCompressor refuses any other). A tuple that
// breaks this can fail even a fresh window; Push then retains it and
// restarts from it instead of re-evaluating it forever, so malformed input
// ends rather than hangs, and its output is still a subsequence of it.
//
// The zero value with tau and eta set is ready to use.
type OnlineBTC struct {
	tau, eta float64

	anchor  traj.Entry
	prev    traj.Entry
	fresh   bool // the window holds no point past its anchor
	lo, hi  float64
	flatEnd float64       // latest time seen at the anchor's distance
	out     traj.Temporal // retained tuples; the first push retains its tuple
}

// NewOnlineBTC creates a streaming temporal compressor with the given
// bounds.
func NewOnlineBTC(tau, eta float64) *OnlineBTC { return &OnlineBTC{tau: tau, eta: eta} }

func (o *OnlineBTC) resetWindow(anchor traj.Entry) {
	o.anchor = anchor
	o.fresh = true
	o.lo, o.hi = 0, math.Inf(1)
	o.flatEnd = math.Inf(-1)
}

// Push feeds the next temporal tuple.
func (o *OnlineBTC) Push(p traj.Entry) {
	if len(o.out) == 0 {
		o.out = append(o.out, p)
		o.resetWindow(p)
		o.prev = p
		return
	}
	const eps = 1e-9
	var dt, dd float64
	for {
		dt, dd = p.T-o.anchor.T, p.D-o.anchor.D
		s := dd / dt
		ok := s >= o.lo-eps && s <= o.hi+eps
		if ok && dd > 0 && !math.IsInf(o.flatEnd, -1) && o.flatEnd-o.anchor.T > o.eta+eps {
			// Plateau-exit rule: the object idled at the anchor distance for
			// longer than η; a rising chord would report departure at the
			// anchor time, off by more than η.
			ok = false
		}
		if ok {
			break
		}
		if o.fresh { // malformed tuple (see above)
			o.out = append(o.out, p)
			o.resetWindow(p)
			o.prev = p
			return
		}
		// Retain prev, restart the window from it and re-evaluate p.
		o.out = append(o.out, o.prev)
		o.resetWindow(o.prev)
	}
	// p joins the window interior: intersect the angular range with its
	// TSND and NSTD constraints.
	o.fresh = false
	o.prev = p
	if l1 := (dd - o.tau) / dt; l1 > o.lo {
		o.lo = l1
	}
	if h1 := (dd + o.tau) / dt; h1 < o.hi {
		o.hi = h1
	}
	if dd > 0 {
		if l2 := dd / (dt + o.eta); l2 > o.lo {
			o.lo = l2
		}
		if dt-o.eta > 0 {
			if h2 := dd / (dt - o.eta); h2 < o.hi {
				o.hi = h2
			}
		}
	} else if p.T > o.flatEnd {
		o.flatEnd = p.T
	}
}

// Retained returns the tuples retained so far; Flush adds the trailing one.
func (o *OnlineBTC) Retained() traj.Temporal { return o.out }

// Flush retains the trailing tuple and returns the compressed sequence,
// which the caller then owns. A fresh window's last tuple is its anchor,
// already retained. The compressor is reset for a new trajectory.
func (o *OnlineBTC) Flush() traj.Temporal {
	if len(o.out) > 0 && !o.fresh {
		o.out = append(o.out, o.prev)
	}
	out := o.out
	o.out = nil
	o.Reset()
	return out
}

// Reset discards the trajectory in flight.
func (o *OnlineBTC) Reset() {
	*o = OnlineBTC{tau: o.tau, eta: o.eta, out: o.out[:0]}
}

// BTC runs OnlineBTC over a whole temporal sequence with bounds τ (TSND,
// meters) and η (NSTD, seconds).
func BTC(ts traj.Temporal, tau, eta float64) traj.Temporal {
	o := OnlineBTC{tau: tau, eta: eta, out: make(traj.Temporal, 0, 4)}
	for _, p := range ts {
		o.Push(p)
	}
	return o.Flush()
}

// CompressionRatioTuples returns the tuple-count compression ratio the paper
// reports for BTC (Fig. 12(a)).
func CompressionRatioTuples(orig, comp traj.Temporal) float64 {
	if len(comp) == 0 {
		return 0
	}
	return float64(len(orig)) / float64(len(comp))
}
