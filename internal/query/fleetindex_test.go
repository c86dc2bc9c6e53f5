package query

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"press/internal/core"
	"press/internal/geo"
	"press/internal/store"
)

// fleetFixture builds a fixture plus the index over its compressed fleet.
func fleetFixture(t *testing.T) (*fixture, *FleetIndex) {
	t.Helper()
	f := newFixture(t, 0, 0)
	fi, err := NewFleetIndex(f.eng, f.cts)
	if err != nil {
		t.Fatal(err)
	}
	return f, fi
}

func TestFleetIndexRangeMatchesBruteForce(t *testing.T) {
	f, fi := fleetFixture(t)
	if fi.Len() != len(f.cts) {
		t.Fatalf("Len = %d", fi.Len())
	}
	rng := rand.New(rand.NewSource(41))
	netMBR := f.ds.Graph.MBR()
	for trial := 0; trial < 30; trial++ {
		cx := netMBR.MinX + rng.Float64()*(netMBR.MaxX-netMBR.MinX)
		cy := netMBR.MinY + rng.Float64()*(netMBR.MaxY-netMBR.MinY)
		half := 50 + rng.Float64()*400
		r := geo.NewMBR(geo.Point{X: cx - half, Y: cy - half}, geo.Point{X: cx + half, Y: cy + half})
		t1 := rng.Float64() * 400
		t2 := t1 + rng.Float64()*600
		got, err := fi.RangeQuery(t1, t2, r)
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for i, ct := range f.cts {
			if !alive(ct, t1, t2) {
				continue // index semantics: active during the window
			}
			hit, err := f.eng.Range(ct, t1, t2, r)
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				want = append(want, i)
			}
		}
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("trial %d: index %v brute %v", trial, got, want)
		}
	}
}

// alive reports lifetime overlap with the query window.
func alive(ct *core.Compressed, t1, t2 float64) bool {
	n := len(ct.Temporal)
	if n == 0 {
		return false
	}
	return ct.Temporal[n-1].T >= t1 && ct.Temporal[0].T <= t2
}

func TestFleetIndexNearbyMatchesBruteForce(t *testing.T) {
	f, fi := fleetFixture(t)
	rng := rand.New(rand.NewSource(43))
	netMBR := f.ds.Graph.MBR()
	for trial := 0; trial < 30; trial++ {
		p := geo.Point{
			X: netMBR.MinX + rng.Float64()*(netMBR.MaxX-netMBR.MinX),
			Y: netMBR.MinY + rng.Float64()*(netMBR.MaxY-netMBR.MinY),
		}
		dist := 30 + rng.Float64()*250
		got, err := fi.Nearby(p, dist, 0, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for i, ct := range f.cts {
			if !alive(ct, 0, 1e9) {
				continue
			}
			hit, err := f.eng.PassesNear(ct, p, dist, 0, 1e9)
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				want = append(want, i)
			}
		}
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("trial %d: index %v brute %v", trial, got, want)
		}
	}
}

// An index bulk-loaded from a sharded store must answer exactly like one
// built from the in-memory slice, and RecordID must map result positions
// back to store ids.
func TestFleetIndexFromShardedStore(t *testing.T) {
	f, fi := fleetFixture(t)
	st, err := store.CreateSharded(filepath.Join(t.TempDir(), "fleet"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i, ct := range f.cts {
		if err := st.Append(uint64(i), ct); err != nil {
			t.Fatal(err)
		}
	}
	sfi, err := NewFleetIndexFromStore(f.eng, st)
	if err != nil {
		t.Fatal(err)
	}
	if sfi.Len() != fi.Len() {
		t.Fatalf("Len = %d want %d", sfi.Len(), fi.Len())
	}
	rng := rand.New(rand.NewSource(47))
	netMBR := f.ds.Graph.MBR()
	for trial := 0; trial < 20; trial++ {
		cx := netMBR.MinX + rng.Float64()*(netMBR.MaxX-netMBR.MinX)
		cy := netMBR.MinY + rng.Float64()*(netMBR.MaxY-netMBR.MinY)
		half := 50 + rng.Float64()*400
		r := geo.NewMBR(geo.Point{X: cx - half, Y: cy - half}, geo.Point{X: cx + half, Y: cy + half})
		t1 := rng.Float64() * 400
		t2 := t1 + rng.Float64()*600
		want, err := fi.RangeQuery(t1, t2, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sfi.RangeQuery(t1, t2, r)
		if err != nil {
			t.Fatal(err)
		}
		// Store scan order is per-shard, not slice order, so compare the
		// sets of record ids instead of positions.
		wantIDs := map[uint64]bool{}
		for _, i := range want {
			wantIDs[fi.RecordID(i)] = true
		}
		gotIDs := map[uint64]bool{}
		for _, i := range got {
			gotIDs[sfi.RecordID(i)] = true
		}
		if !reflect.DeepEqual(gotIDs, wantIDs) && !(len(gotIDs) == 0 && len(wantIDs) == 0) {
			t.Fatalf("trial %d: store-index ids %v slice-index ids %v", trial, gotIDs, wantIDs)
		}
	}
	if _, err := NewFleetIndexFromStore(f.eng, nil); err == nil {
		t.Error("nil store accepted")
	}
}

func TestFleetIndexTimePruning(t *testing.T) {
	f, fi := fleetFixture(t)
	// A window before any trajectory starts must return nothing.
	got, err := fi.RangeQuery(-1e6, -1e5, f.ds.Graph.MBR())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("pre-time window returned %v", got)
	}
}

func TestFleetIndexEmpty(t *testing.T) {
	f := newFixture(t, 0, 0)
	fi, err := NewFleetIndex(f.eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fi.RangeQuery(0, 100, f.ds.Graph.MBR())
	if err != nil || len(got) != 0 {
		t.Errorf("empty index query = %v (%v)", got, err)
	}
}

func TestFleetIndexNilEngine(t *testing.T) {
	if _, err := NewFleetIndex(nil, nil); err == nil {
		t.Error("nil engine accepted")
	}
}

func TestBuildSTRShape(t *testing.T) {
	// 100 leaves must pack into a tree with bounded fanout whose root MBR
	// covers everything.
	var leaves []*rtreeNode
	rng := rand.New(rand.NewSource(45))
	total := geo.EmptyMBR()
	for i := 0; i < 100; i++ {
		p := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		m := geo.NewMBR(p, geo.Point{X: p.X + 10, Y: p.Y + 10})
		total.ExtendMBR(m)
		leaves = append(leaves, &rtreeNode{mbr: m, leafIdx: i})
	}
	root := buildSTR(leaves)
	var depthCheck func(n *rtreeNode, depth int) int
	count := 0
	depthCheck = func(n *rtreeNode, depth int) int {
		if n.leafIdx >= 0 {
			count++
			return depth
		}
		if len(n.children) > rtreeFanout {
			t.Fatalf("fanout %d exceeded", len(n.children))
		}
		max := depth
		for _, c := range n.children {
			if !n.mbr.Intersects(c.mbr) {
				t.Fatal("child not covered by parent MBR")
			}
			if d := depthCheck(c, depth+1); d > max {
				max = d
			}
		}
		return max
	}
	depth := depthCheck(root, 0)
	if count != 100 {
		t.Fatalf("leaf count = %d", count)
	}
	if depth > 4 {
		t.Errorf("depth %d too deep for 100 leaves at fanout %d", depth, rtreeFanout)
	}
	if root.mbr != total {
		t.Errorf("root MBR %+v != union %+v", root.mbr, total)
	}
}
