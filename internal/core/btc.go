package core

import (
	"math"

	"press/internal/traj"
)

// BTC is the Bounded Temporal Compression of §4.2 (Algorithm 3): an
// opening-window simplification of the (d, t) polyline whose per-window
// feasibility is tracked with an angular range, giving O(|T|) total time.
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
// ts must satisfy Temporal.Validate. A point that breaks it can fail even a
// fresh window; BTC then retains it and restarts from it instead of
// re-evaluating it forever, so malformed input ends with some subsequence
// rather than a hang.
func BTC(ts traj.Temporal, tau, eta float64) traj.Temporal {
	n := len(ts)
	if n <= 2 {
		return ts.Clone()
	}
	out := make(traj.Temporal, 0, 4)
	out = append(out, ts[0])

	a := 0 // anchor index
	lo, hi := 0.0, math.Inf(1)
	flatEnd := math.Inf(-1) // latest time seen at the anchor's distance

	reset := func(idx int) {
		a = idx
		lo, hi = 0, math.Inf(1)
		flatEnd = math.Inf(-1)
	}

	const eps = 1e-9
	i := 1
	for i < n {
		p := ts[i]
		dt := p.T - ts[a].T
		dd := p.D - ts[a].D
		s := dd / dt

		ok := s >= lo-eps && s <= hi+eps
		if ok && dd > 0 && !math.IsInf(flatEnd, -1) && flatEnd-ts[a].T > eta+eps {
			// Plateau-exit rule: the object idled at the anchor distance for
			// longer than η; a rising chord would report departure at the
			// anchor time, off by more than η.
			ok = false
		}
		if !ok && a == i-1 {
			// p fails a fresh window: ts is malformed (see above).
			out = append(out, p)
			reset(i)
			i++
			continue
		}
		if !ok {
			// Retain the previous point and re-evaluate p against it.
			out = append(out, ts[i-1])
			reset(i - 1)
			continue
		}
		// p joins the window interior: intersect the angular range with its
		// TSND and NSTD constraints.
		l1 := (dd - tau) / dt
		h1 := (dd + tau) / dt
		if l1 > lo {
			lo = l1
		}
		if h1 < hi {
			hi = h1
		}
		if dd > 0 {
			l2 := dd / (dt + eta)
			if l2 > lo {
				lo = l2
			}
			if dt-eta > 0 {
				if h2 := dd / (dt - eta); h2 < hi {
					hi = h2
				}
			}
		} else if p.T > flatEnd {
			flatEnd = p.T
		}
		i++
	}
	return append(out, ts[n-1])
}

// CompressionRatioTuples returns the tuple-count compression ratio the paper
// reports for BTC (Fig. 12(a)).
func CompressionRatioTuples(orig, comp traj.Temporal) float64 {
	if len(comp) == 0 {
		return 0
	}
	return float64(len(orig)) / float64(len(comp))
}
