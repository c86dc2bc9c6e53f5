package core

import (
	"math"
	"math/rand"
	"testing"

	"press/internal/traj"
)

func TestBTCKeepsEndpointsAndValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		ts := randTemporal(rng, rng.Intn(60)+3, 0.3)
		comp := BTC(ts, 100, 60)
		if comp[0] != ts[0] || comp[len(comp)-1] != ts[len(ts)-1] {
			t.Fatal("endpoints not preserved")
		}
		if err := comp.Validate(); err != nil {
			t.Fatalf("invalid output: %v", err)
		}
		if len(comp) > len(ts) {
			t.Fatal("compression grew")
		}
	}
}

func TestBTCOutputIsSubsequence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		ts := randTemporal(rng, rng.Intn(50)+3, 0.25)
		comp := BTC(ts, 50, 30)
		i := 0
		for _, e := range comp {
			for i < len(ts) && ts[i] != e {
				i++
			}
			if i == len(ts) {
				t.Fatal("output point not in input order")
			}
			i++
		}
	}
}

// The central correctness property of §4: the exact TSND and NSTD between
// original and compressed are within the configured bounds.
func TestBTCBoundsHold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bounds := []struct{ tau, eta float64 }{
		{tau: 0, eta: 0}, {tau: 10, eta: 10}, {tau: 100, eta: 0}, {tau: 0, eta: 100},
		{tau: 50, eta: 200}, {tau: 1000, eta: 1000}, {tau: 200, eta: 5},
	}
	for trial := 0; trial < 400; trial++ {
		ts := randTemporal(rng, rng.Intn(80)+3, 0.3)
		b := bounds[trial%len(bounds)]
		comp := BTC(ts, b.tau, b.eta)
		if got := TSND(ts, comp); got > b.tau+1e-6 {
			t.Fatalf("trial %d: TSND %.9f > tau %.0f (n=%d -> %d)", trial, got, b.tau, len(ts), len(comp))
		}
		if got := NSTD(ts, comp); got > b.eta+1e-6 {
			t.Fatalf("trial %d: NSTD %.9f > eta %.0f (n=%d -> %d)", trial, got, b.eta, len(ts), len(comp))
		}
	}
}

func TestBTCZeroToleranceRemovesPlateauInterior(t *testing.T) {
	// Taxi stopped from t=10 to t=50 with intermediate samples; interior
	// plateau points are redundant even at zero tolerance.
	ts := traj.Temporal{
		{D: 0, T: 0}, {D: 100, T: 10}, {D: 100, T: 20}, {D: 100, T: 30}, {D: 100, T: 40}, {D: 100, T: 50}, {D: 200, T: 60},
	}
	comp := BTC(ts, 0, 0)
	if len(comp) >= len(ts) {
		t.Fatalf("no compression at zero tolerance: %v", comp)
	}
	if got := TSND(ts, comp); got > 1e-9 {
		t.Errorf("TSND = %v", got)
	}
	if got := NSTD(ts, comp); got > 1e-9 {
		t.Errorf("NSTD = %v", got)
	}
}

func TestBTCZeroToleranceCollinear(t *testing.T) {
	// Exactly collinear points: uniform speed; all interior removable.
	ts := traj.Temporal{{D: 0, T: 0}, {D: 100, T: 10}, {D: 200, T: 20}, {D: 300, T: 30}, {D: 400, T: 40}}
	comp := BTC(ts, 0, 0)
	if len(comp) != 2 {
		t.Fatalf("collinear not collapsed: %v", comp)
	}
}

func TestBTCPlateauExitRule(t *testing.T) {
	// Long stop (60 s) then movement; with eta=10 the plateau end must be
	// retained, otherwise the compressed chord would claim the vehicle left
	// 60 s early.
	ts := traj.Temporal{{D: 0, T: 0}, {D: 100, T: 10}, {D: 100, T: 70}, {D: 300, T: 90}}
	comp := BTC(ts, 1000, 10) // generous tau so only NSTD matters
	if got := NSTD(ts, comp); got > 10+1e-9 {
		t.Fatalf("NSTD = %v > 10; comp = %v", got, comp)
	}
	// The plateau end (100, 70) must have been retained.
	found := false
	for _, e := range comp {
		if e == (traj.Entry{D: 100, T: 70}) {
			found = true
		}
	}
	if !found {
		t.Errorf("plateau end dropped: %v", comp)
	}
}

func TestBTCLargeBoundsCollapseToEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ts := randTemporal(rng, 30, 0)
	comp := BTC(ts, 1e12, 1e12)
	if len(comp) != 2 {
		t.Errorf("unbounded BTC kept %d points", len(comp))
	}
}

func TestBTCTinySequences(t *testing.T) {
	one := traj.Temporal{{D: 0, T: 0}}
	if got := BTC(one, 10, 10); len(got) != 1 {
		t.Error("len-1 changed")
	}
	two := traj.Temporal{{D: 0, T: 0}, {D: 5, T: 10}}
	if got := BTC(two, 10, 10); len(got) != 2 {
		t.Error("len-2 changed")
	}
}

func TestBTCMonotoneInBounds(t *testing.T) {
	// Looser bounds can never produce more points (on the same input) for a
	// nested-window greedy? Not guaranteed in general, but ratios should not
	// collapse: check the weaker property that the largest bound compresses
	// at least as well as zero bounds.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		ts := randTemporal(rng, 50, 0.3)
		tight := BTC(ts, 0, 0)
		loose := BTC(ts, 1e9, 1e9)
		if len(loose) > len(tight) {
			t.Fatalf("loose bounds kept more points (%d > %d)", len(loose), len(tight))
		}
	}
}

func TestCompressionRatioTuples(t *testing.T) {
	orig := make(traj.Temporal, 10)
	comp := make(traj.Temporal, 4)
	if got := CompressionRatioTuples(orig, comp); got != 2.5 {
		t.Errorf("ratio = %v", got)
	}
	if got := CompressionRatioTuples(orig, nil); got != 0 {
		t.Errorf("empty comp ratio = %v", got)
	}
}

// btcReference is Algorithm 3 as a batch loop over the whole sequence, kept
// as the oracle the streaming OnlineBTC (and so BTC) is checked against on
// valid input.
func btcReference(ts traj.Temporal, tau, eta float64) traj.Temporal {
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
