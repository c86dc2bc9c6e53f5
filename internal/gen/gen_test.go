package gen

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"press/internal/roadnet"
	"press/internal/spindex"
	"press/internal/traj"
)

func smallCity(t *testing.T) *roadnet.Graph {
	t.Helper()
	opt := CityOptions{Rows: 8, Cols: 8, Spacing: 150, PosJitter: 0.2, RemoveEdgeProb: 0.1, Seed: 5}
	g, err := City(opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCityValidation(t *testing.T) {
	if _, err := City(CityOptions{Rows: 1, Cols: 5, Spacing: 100}); err == nil {
		t.Error("1-row city accepted")
	}
	if _, err := City(CityOptions{Rows: 5, Cols: 5, Spacing: 0}); err == nil {
		t.Error("zero spacing accepted")
	}
}

func TestCityStronglyConnected(t *testing.T) {
	g := smallCity(t)
	// Every vertex must reach every other (sampled): run one forward
	// Dijkstra from vertex 0 and one reverse check via trips later; here
	// check forward reachability from 0 and into 0.
	s := spindex.VertexDijkstra(g, 0, spindex.WeightCost, -1)
	for v, d := range s.Dist {
		if math.IsInf(d, 1) {
			t.Fatalf("vertex %d unreachable from 0", v)
		}
	}
}

func TestCityRemovesEdges(t *testing.T) {
	full, err := City(CityOptions{Rows: 8, Cols: 8, Spacing: 150, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pruned := smallCity(t)
	if pruned.NumEdges() >= full.NumEdges() {
		t.Errorf("no edges removed: %d vs %d", pruned.NumEdges(), full.NumEdges())
	}
}

func TestCityDeterministic(t *testing.T) {
	a := smallCity(t)
	b := smallCity(t)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed, different city")
	}
	for i := range a.Edges {
		if a.Edges[i].From != b.Edges[i].From || a.Edges[i].To != b.Edges[i].To {
			t.Fatal("edge sets differ")
		}
	}
}

func TestCityScale(t *testing.T) {
	base := CityOptions{Rows: 6, Cols: 6, Spacing: 150, PosJitter: 0.2, RemoveEdgeProb: 0.1, Seed: 5}
	for _, bad := range []int{0, -4, 2, 3, 8} {
		if _, err := base.Scale(bad); err == nil {
			t.Errorf("Scale(%d) accepted", bad)
		}
	}
	g1, err := City(base)
	if err != nil {
		t.Fatal(err)
	}
	prev := g1.NumEdges()
	for _, factor := range []int{4, 16} {
		opt, err := base.Scale(factor)
		if err != nil {
			t.Fatal(err)
		}
		g, err := City(opt)
		if err != nil {
			t.Fatal(err)
		}
		// Edge count should grow roughly linearly with the factor: lattice
		// arc count is 2·(r(c−1)+c(r−1)), so exact 4x is not expected, but
		// a factor-4 step must land well beyond 3x and below 5x.
		ratio := float64(g.NumEdges()) / float64(prev)
		if ratio < 3 || ratio > 5 {
			t.Errorf("scale step to %dx: edge ratio %.2f (edges %d -> %d)", factor, ratio, prev, g.NumEdges())
		}
		prev = g.NumEdges()
		// Deterministic: same options, same graph.
		again, err := City(opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Vertices, g.Vertices) || !reflect.DeepEqual(again.Edges, g.Edges) {
			t.Errorf("scale %dx not deterministic", factor)
		}
	}
}

func TestTripsAreConnectedPaths(t *testing.T) {
	g := smallCity(t)
	trips, err := Trips(g, DefaultTrips(50))
	if err != nil {
		t.Fatal(err)
	}
	if len(trips) != 50 {
		t.Fatalf("got %d trips", len(trips))
	}
	for i, p := range trips {
		if len(p) < 4 {
			t.Errorf("trip %d too short: %d", i, len(p))
		}
		if !g.IsPath([]roadnet.EdgeID(p)) {
			t.Errorf("trip %d not a connected path", i)
		}
	}
}

func TestTripsMostlyShortestPaths(t *testing.T) {
	g := smallCity(t)
	opt := DefaultTrips(60)
	opt.DetourProb = 0 // pure shortest paths
	opt.Legs = 1       // single-leg so the whole trip is one shortest path
	trips, err := Trips(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range trips {
		o := g.Edge(p[0]).From
		d := g.Edge(p[len(p)-1]).To
		s := spindex.VertexDijkstra(g, o, spindex.WeightCost, -1)
		if got, want := g.PathLength([]roadnet.EdgeID(p)), s.Dist[d]; math.Abs(got-want) > 1e-6 {
			t.Errorf("trip %d: length %.1f, shortest %.1f", i, got, want)
		}
	}
}

func TestTripsHotspotSkew(t *testing.T) {
	g := smallCity(t)
	opt := DefaultTrips(300)
	trips, err := Trips(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Count endpoint vertices; the top endpoint must be clearly hotter than
	// the uniform expectation.
	counts := map[roadnet.VertexID]int{}
	for _, p := range trips {
		counts[g.Edge(p[0]).From]++
		counts[g.Edge(p[len(p)-1]).To]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	uniform := float64(2*len(trips)) / float64(g.NumVertices())
	if float64(max) < 4*uniform {
		t.Errorf("hotspot skew too weak: max endpoint count %d vs uniform %.1f", max, uniform)
	}
}

func TestDriveProducesConsistentTruth(t *testing.T) {
	g := smallCity(t)
	trips, err := Trips(g, DefaultTrips(10))
	if err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{Graph: g}
	opt := DefaultGPS()
	for _, p := range trips {
		raw, truth, err := Drive(g, p, opt, newRng(7))
		if err != nil {
			t.Fatal(err)
		}
		if err := raw.Validate(); err != nil {
			t.Fatalf("raw invalid: %v", err)
		}
		if err := truth.Validate(g); err != nil {
			t.Fatalf("truth invalid: %v", err)
		}
		total := g.PathLength([]roadnet.EdgeID(p))
		last := truth.Temporal[len(truth.Temporal)-1]
		if math.Abs(last.D-total) > 1e-6 {
			t.Errorf("truth does not reach path end: %.1f vs %.1f", last.D, total)
		}
		if len(raw) != len(truth.Temporal) {
			t.Errorf("raw and truth sample counts differ")
		}
		ds.Raws = append(ds.Raws, raw)
	}
	if ds.RawSizeBytes() <= 0 {
		t.Error("RawSizeBytes should be positive")
	}
}

func TestDriveErrors(t *testing.T) {
	g := smallCity(t)
	if _, _, err := Drive(g, nil, DefaultGPS(), newRng(1)); err == nil {
		t.Error("empty path accepted")
	}
	bad := DefaultGPS()
	bad.SampleInterval = 0
	if _, _, err := Drive(g, traj.Path{0}, bad, newRng(1)); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestDriveHasStops(t *testing.T) {
	g := smallCity(t)
	trips, err := Trips(g, DefaultTrips(5))
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultGPS()
	opt.StopProb = 0.05 // force frequent stops
	stationary, totalSamples := 0, 0
	for _, p := range trips {
		_, truth, err := Drive(g, p, opt, newRng(11))
		if err != nil {
			t.Fatal(err)
		}
		ts := truth.Temporal
		for i := 1; i < len(ts); i++ {
			totalSamples++
			if ts[i].D == ts[i-1].D {
				stationary++
			}
		}
	}
	if stationary == 0 {
		t.Errorf("no stationary samples among %d", totalSamples)
	}
}

func TestGenerateEndToEnd(t *testing.T) {
	opt := Options{
		City:  CityOptions{Rows: 6, Cols: 6, Spacing: 150, PosJitter: 0.15, RemoveEdgeProb: 0.05, Seed: 9},
		Trips: DefaultTrips(20),
		GPS:   DefaultGPS(),
	}
	ds, err := Generate(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Trips) != 20 || len(ds.Raws) != 20 || len(ds.Truth) != 20 {
		t.Fatalf("sizes = %d/%d/%d", len(ds.Trips), len(ds.Raws), len(ds.Truth))
	}
	for i := range ds.Truth {
		if err := ds.Truth[i].Validate(ds.Graph); err != nil {
			t.Errorf("truth %d invalid: %v", i, err)
		}
	}
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
