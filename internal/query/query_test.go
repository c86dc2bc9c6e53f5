package query

import (
	"math"
	"math/rand"
	"testing"

	"press/internal/core"
	"press/internal/gen"
	"press/internal/geo"
	"press/internal/roadnet"
	"press/internal/spindex"
	"press/internal/traj"
)

func pathOf(tr *traj.Trajectory) []roadnet.EdgeID { return []roadnet.EdgeID(tr.Path) }

// fixture builds a dataset, a compressor at the given bounds, the engine,
// and the compressed forms of every ground-truth trajectory.
type fixture struct {
	ds   *gen.Dataset
	comp *core.Compressor
	eng  *Engine
	cts  []*core.Compressed
}

func newFixture(t testing.TB, tau, eta float64) *fixture {
	t.Helper()
	opt := gen.Options{
		City:  gen.CityOptions{Rows: 7, Cols: 7, Spacing: 180, PosJitter: 0.15, RemoveEdgeProb: 0.05, Seed: 12},
		Trips: gen.DefaultTrips(25),
		GPS:   gen.DefaultGPS(),
	}
	ds, err := gen.Generate(opt)
	if err != nil {
		t.Fatal(err)
	}
	tab := spindex.NewTable(ds.Graph)
	var corpus []traj.Path
	for _, p := range ds.Trips {
		corpus = append(corpus, core.SPCompress(tab, p))
	}
	cb, err := core.Train(corpus, core.TrainOptions{NumEdges: ds.Graph.NumEdges(), Theta: 3})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := core.NewCompressor(ds.Graph, tab, cb, tau, eta)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds.Graph, tab, cb)
	if err != nil {
		t.Fatal(err)
	}
	cts, err := comp.CompressAll(ds.Truth)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{ds: ds, comp: comp, eng: eng, cts: cts}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, nil, nil); err == nil {
		t.Error("nil components accepted")
	}
}

// At zero temporal tolerance, WhereAt over the compressed form must agree
// with the raw implementation exactly (the spatial code is lossless).
func TestWhereAtZeroToleranceExact(t *testing.T) {
	f := newFixture(t, 0, 0)
	rng := rand.New(rand.NewSource(1))
	for i, ct := range f.cts {
		tr := f.ds.Truth[i]
		for q := 0; q < 10; q++ {
			ts := tr.Temporal
			qt := ts[0].T + rng.Float64()*ts.Duration()
			want := WhereAtRaw(f.ds.Graph, tr, qt)
			got, err := f.eng.WhereAt(ct, qt)
			if err != nil {
				t.Fatalf("WhereAt: %v", err)
			}
			if got.Dist(want) > 1e-6 {
				t.Fatalf("traj %d t=%.1f: compressed %v raw %v", i, qt, got, want)
			}
		}
	}
}

// With tau > 0 the answer must deviate by at most tau (§5.1: the planar
// deviation is bounded by the network-distance deviation, which TSND
// bounds).
func TestWhereAtBoundedDeviation(t *testing.T) {
	const tau = 150.0
	f := newFixture(t, tau, 60)
	rng := rand.New(rand.NewSource(2))
	for i, ct := range f.cts {
		tr := f.ds.Truth[i]
		for q := 0; q < 6; q++ {
			qt := tr.Temporal[0].T + rng.Float64()*tr.Temporal.Duration()
			want := WhereAtRaw(f.ds.Graph, tr, qt)
			got, err := f.eng.WhereAt(ct, qt)
			if err != nil {
				t.Fatal(err)
			}
			if got.Dist(want) > tau+1e-6 {
				t.Fatalf("traj %d: deviation %.1f > tau %.0f", i, got.Dist(want), tau)
			}
		}
	}
}

func TestWhenAtZeroToleranceExact(t *testing.T) {
	f := newFixture(t, 0, 0)
	rng := rand.New(rand.NewSource(3))
	for i, ct := range f.cts {
		tr := f.ds.Truth[i]
		for q := 0; q < 8; q++ {
			// Query a point exactly on the path.
			d := rng.Float64() * tr.Temporal.Distance()
			p := f.ds.Graph.PointAlongPath(pathOf(tr), d)
			want, err := WhenAtRaw(f.ds.Graph, tr, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.eng.WhenAt(ct, p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-6 {
				t.Fatalf("traj %d d=%.1f: compressed t=%.3f raw t=%.3f", i, d, got, want)
			}
		}
	}
}

func TestRangeAgreesWithRaw(t *testing.T) {
	f := newFixture(t, 0, 0)
	rng := rand.New(rand.NewSource(4))
	netMBR := f.ds.Graph.MBR()
	agree, total := 0, 0
	for i, ct := range f.cts {
		tr := f.ds.Truth[i]
		for q := 0; q < 8; q++ {
			cx := netMBR.MinX + rng.Float64()*(netMBR.MaxX-netMBR.MinX)
			cy := netMBR.MinY + rng.Float64()*(netMBR.MaxY-netMBR.MinY)
			half := 30 + rng.Float64()*250
			r := geo.NewMBR(geo.Point{X: cx - half, Y: cy - half}, geo.Point{X: cx + half, Y: cy + half})
			t1 := tr.Temporal[0].T + rng.Float64()*tr.Temporal.Duration()
			t2 := t1 + rng.Float64()*tr.Temporal.Duration()/2
			want := RangeRaw(f.ds.Graph, tr, t1, t2, r)
			got, err := f.eng.Range(ct, t1, t2, r)
			if err != nil {
				t.Fatal(err)
			}
			total++
			if got == want {
				agree++
			}
		}
	}
	if agree != total {
		t.Errorf("range agreement %d/%d at zero tolerance (must be exact)", agree, total)
	}
}

func TestPassesNearAgreesWithRaw(t *testing.T) {
	f := newFixture(t, 0, 0)
	rng := rand.New(rand.NewSource(5))
	netMBR := f.ds.Graph.MBR()
	for i, ct := range f.cts {
		tr := f.ds.Truth[i]
		for q := 0; q < 6; q++ {
			p := geo.Point{
				X: netMBR.MinX + rng.Float64()*(netMBR.MaxX-netMBR.MinX),
				Y: netMBR.MinY + rng.Float64()*(netMBR.MaxY-netMBR.MinY),
			}
			dist := 40 + rng.Float64()*200
			t1 := tr.Temporal[0].T
			t2 := t1 + tr.Temporal.Duration()
			want := PassesNearRaw(f.ds.Graph, tr, p, dist, t1, t2)
			got, err := f.eng.PassesNear(ct, p, dist, t1, t2)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("traj %d: PassesNear = %v raw %v (p=%v dist=%.0f)", i, got, want, p, dist)
			}
		}
	}
}

func TestMinDistanceAgreesWithRaw(t *testing.T) {
	f := newFixture(t, 0, 0)
	for i := 0; i+1 < len(f.cts) && i < 8; i += 2 {
		want := MinDistanceRaw(f.ds.Graph, f.ds.Truth[i], f.ds.Truth[i+1])
		got, err := f.eng.MinDistance(f.cts[i], f.cts[i+1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("pair %d: MinDistance = %.3f raw %.3f", i, got, want)
		}
	}
}

func TestEngineMemoryBytes(t *testing.T) {
	f := newFixture(t, 0, 0)
	if f.eng.MemoryBytes() <= 0 {
		t.Error("MemoryBytes should be positive")
	}
}

// TestGapLengthsMatchSP pins every decoded unit length, bit for bit, to the
// shortest-path source. A Hier-backed engine decodes each record twice —
// cold, then through its gap memo — and must reproduce the Table-backed
// engine's units, with every gap as long as an independent Table's GapDist.
func TestGapLengthsMatchSP(t *testing.T) {
	f := newFixture(t, 0, 0)
	g := f.ds.Graph
	hier, err := NewEngine(g, spindex.NewHier(g), f.eng.cb)
	if err != nil {
		t.Fatal(err)
	}
	oracle := spindex.NewTable(g)
	gaps := 0
	for pass := 0; pass < 2; pass++ {
		for i, ct := range f.cts {
			want, err := f.eng.units(ct)
			if err != nil {
				t.Fatal(err)
			}
			got, err := hier.units(ct)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("pass %d record %d: %d units, want %d", pass, i, len(got), len(want))
			}
			for j, u := range got {
				w := want[j]
				if u.isGap != w.isGap || u.node != w.node || u.from != w.from || u.to != w.to ||
					math.Float64bits(u.startD) != math.Float64bits(w.startD) ||
					math.Float64bits(u.length) != math.Float64bits(w.length) {
					t.Fatalf("pass %d record %d unit %d: %+v, want %+v", pass, i, j, u, w)
				}
				if !u.isGap {
					continue
				}
				gaps++
				if d := oracle.GapDist(u.from, u.to); math.Float64bits(u.length) != math.Float64bits(d) {
					t.Fatalf("pass %d record %d unit %d: gap length %v, GapDist %v", pass, i, j, u.length, d)
				}
			}
		}
	}
	if gaps == 0 {
		t.Fatal("no gap units decoded")
	}
}

func TestSubPolyline(t *testing.T) {
	pl := geo.Polyline{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}}
	sub := subPolyline(pl, 5, 15)
	if len(sub) != 3 {
		t.Fatalf("sub = %v", sub)
	}
	if sub[0].Dist(geo.Point{X: 5, Y: 0}) > 1e-9 || sub[2].Dist(geo.Point{X: 10, Y: 5}) > 1e-9 {
		t.Errorf("sub endpoints = %v", sub)
	}
	if got := subPolyline(pl, -5, 100); got.Length() != pl.Length() {
		t.Error("clamped window should cover whole polyline")
	}
	if got := subPolyline(pl, 12, 3); got != nil {
		t.Error("inverted window should be nil")
	}
	point := subPolyline(pl, 5, 5)
	if len(point) != 1 || point[0].Dist(geo.Point{X: 5, Y: 0}) > 1e-9 {
		t.Errorf("degenerate window = %v", point)
	}
}

func TestWhereAtPastEnd(t *testing.T) {
	f := newFixture(t, 0, 0)
	tr := f.ds.Truth[0]
	ct := f.cts[0]
	end := tr.Temporal[len(tr.Temporal)-1]
	got, err := f.eng.WhereAt(ct, end.T+1e6)
	if err != nil {
		t.Fatal(err)
	}
	want := WhereAtRaw(f.ds.Graph, tr, end.T)
	if got.Dist(want) > 1e-6 {
		t.Errorf("past-end WhereAt = %v want %v", got, want)
	}
}
