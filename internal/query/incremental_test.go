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

// incFixture builds a sharded store with the fixture fleet, a view
// over it, and an incremental index refreshed from the store.
func incFixture(t *testing.T, bucketSeconds float64) (*fixture, *store.ShardedStore, *View, *IncrementalFleetIndex) {
	t.Helper()
	f := newFixture(t, 0, 0)
	dir := filepath.Join(t.TempDir(), "fleet")
	st, err := store.CreateSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for i, ct := range f.cts {
		if err := st.Append(uint64(i), ct); err != nil {
			t.Fatal(err)
		}
	}
	v, err := NewView(f.eng, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIncrementalFleetIndex(v, bucketSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.RefreshFromStore(st); err != nil {
		t.Fatal(err)
	}
	return f, st, v, ix
}

// alive reports lifetime overlap with the query window: the fleet index
// only considers trajectories active during [t1, t2].
func alive(ct *core.Compressed, t1, t2 float64) bool {
	n := len(ct.Temporal)
	if n == 0 {
		return false
	}
	return ct.Temporal[n-1].T >= t1 && ct.Temporal[0].T <= t2
}

// bruteIDs is the reference answer: every fixture record alive in the
// window whose exact per-trajectory predicate holds, in ascending id order.
func bruteIDs(t *testing.T, cts []*core.Compressed, t1, t2 float64, hit func(*core.Compressed) (bool, error)) []uint64 {
	t.Helper()
	var want []uint64
	for i, ct := range cts {
		if !alive(ct, t1, t2) {
			continue
		}
		ok, err := hit(ct)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			want = append(want, uint64(i))
		}
	}
	return want
}

// sameIDs compares id lists, treating nil and empty as equal.
func sameIDs(got, want []uint64) bool {
	return (len(got) == 0 && len(want) == 0) || reflect.DeepEqual(got, want)
}

// The incremental index must return exactly the ids a brute-force pass of
// the exact Range / PassesNear predicates returns over every record alive
// in the window, over many random windows and both bucket granularities.
func TestIncrementalMatchesBruteForce(t *testing.T) {
	for _, width := range []float64{0, 100} { // default hourly, and many small buckets
		f, _, _, ix := incFixture(t, width)
		if ix.Len() != len(f.cts) {
			t.Fatalf("width %v: len %d want %d", width, ix.Len(), len(f.cts))
		}
		netMBR := f.ds.Graph.MBR()
		rng := rand.New(rand.NewSource(29))
		for trial := 0; trial < 60; trial++ {
			cx := netMBR.MinX + rng.Float64()*(netMBR.MaxX-netMBR.MinX)
			cy := netMBR.MinY + rng.Float64()*(netMBR.MaxY-netMBR.MinY)
			half := 50 + rng.Float64()*600
			r := geo.NewMBR(geo.Point{X: cx - half, Y: cy - half}, geo.Point{X: cx + half, Y: cy + half})
			t1 := rng.Float64() * 500
			t2 := t1 + rng.Float64()*500
			want := bruteIDs(t, f.cts, t1, t2, func(ct *core.Compressed) (bool, error) {
				return f.eng.Range(ct, t1, t2, r)
			})
			got, err := ix.RangeIDs(t1, t2, r)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(got, want) {
				t.Fatalf("width %v trial %d: RangeIDs %v want %v", width, trial, got, want)
			}
			p := geo.Point{X: cx, Y: cy}
			dist := 50 + rng.Float64()*400
			wantN := bruteIDs(t, f.cts, t1, t2, func(ct *core.Compressed) (bool, error) {
				return f.eng.PassesNear(ct, p, dist, t1, t2)
			})
			gotN, err := ix.NearbyIDs(p, dist, t1, t2)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(gotN, wantN) {
				t.Fatalf("width %v trial %d: NearbyIDs %v want %v", width, trial, gotN, wantN)
			}
		}
		if ix.Stats().Verifies == 0 {
			t.Error("no candidates were ever verified")
		}
	}
}

// Range windows drawn independently of the ones above (smaller boxes,
// earlier starts) at the default bucket width: the index answer must equal
// the brute-force answer.
func TestFleetIndexRangeMatchesBruteForce(t *testing.T) {
	f, _, _, ix := incFixture(t, 0)
	rng := rand.New(rand.NewSource(41))
	netMBR := f.ds.Graph.MBR()
	for trial := 0; trial < 30; trial++ {
		cx := netMBR.MinX + rng.Float64()*(netMBR.MaxX-netMBR.MinX)
		cy := netMBR.MinY + rng.Float64()*(netMBR.MaxY-netMBR.MinY)
		half := 50 + rng.Float64()*400
		r := geo.NewMBR(geo.Point{X: cx - half, Y: cy - half}, geo.Point{X: cx + half, Y: cy + half})
		t1 := rng.Float64() * 400
		t2 := t1 + rng.Float64()*600
		want := bruteIDs(t, f.cts, t1, t2, func(ct *core.Compressed) (bool, error) {
			return f.eng.Range(ct, t1, t2, r)
		})
		got, err := ix.RangeIDs(t1, t2, r)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got, want) {
			t.Fatalf("trial %d: index %v brute %v", trial, got, want)
		}
	}
}

// Nearby over all time at fine buckets, so every query window spans every
// bucket: the index answer must equal the brute-force answer.
func TestFleetIndexNearbyMatchesBruteForce(t *testing.T) {
	f, _, _, ix := incFixture(t, 100)
	rng := rand.New(rand.NewSource(43))
	netMBR := f.ds.Graph.MBR()
	for trial := 0; trial < 30; trial++ {
		p := geo.Point{
			X: netMBR.MinX + rng.Float64()*(netMBR.MaxX-netMBR.MinX),
			Y: netMBR.MinY + rng.Float64()*(netMBR.MaxY-netMBR.MinY),
		}
		dist := 30 + rng.Float64()*250
		want := bruteIDs(t, f.cts, 0, 1e9, func(ct *core.Compressed) (bool, error) {
			return f.eng.PassesNear(ct, p, dist, 0, 1e9)
		})
		got, err := ix.NearbyIDs(p, dist, 0, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got, want) {
			t.Fatalf("trial %d: index %v brute %v", trial, got, want)
		}
	}
}

// The deleted STR index answered from every record the store's Scan
// yields. On a store where no vehicle has a superseded session (one record
// per id, some ids tombstoned, one id appended late) the incremental index
// must give the same answers as that Scan-based reference; it differs only
// where a vehicle has superseded sessions, which it does not index.
func TestIncrementalMatchesSTR(t *testing.T) {
	f, st, _, ix := incFixture(t, 100)
	for id := 0; id < len(f.cts); id += 3 {
		if err := st.Delete(uint64(id)); err != nil {
			t.Fatal(err)
		}
	}
	late := uint64(len(f.cts) + 5)
	if err := st.Append(late, f.cts[0]); err != nil {
		t.Fatal(err)
	}
	if err := ix.RefreshFromStore(st); err != nil {
		t.Fatal(err)
	}
	type rec struct {
		id uint64
		ct *core.Compressed
	}
	var scanned []rec
	if err := st.Scan(func(id uint64, ct *core.Compressed) error {
		scanned = append(scanned, rec{id, ct})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != len(scanned) {
		t.Fatalf("index len %d, store scan yields %d", ix.Len(), len(scanned))
	}
	scanIDs := func(t1, t2 float64, hit func(*core.Compressed) (bool, error)) []uint64 {
		var want []uint64
		for _, r := range scanned {
			if !alive(r.ct, t1, t2) {
				continue
			}
			ok, err := hit(r.ct)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				want = append(want, r.id)
			}
		}
		return sortDedupIDs(want)
	}
	rng := rand.New(rand.NewSource(47))
	netMBR := f.ds.Graph.MBR()
	for trial := 0; trial < 30; trial++ {
		cx := netMBR.MinX + rng.Float64()*(netMBR.MaxX-netMBR.MinX)
		cy := netMBR.MinY + rng.Float64()*(netMBR.MaxY-netMBR.MinY)
		half := 50 + rng.Float64()*400
		r := geo.NewMBR(geo.Point{X: cx - half, Y: cy - half}, geo.Point{X: cx + half, Y: cy + half})
		t1 := rng.Float64() * 400
		t2 := t1 + rng.Float64()*600
		want := scanIDs(t1, t2, func(ct *core.Compressed) (bool, error) {
			return f.eng.Range(ct, t1, t2, r)
		})
		got, err := ix.RangeIDs(t1, t2, r)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got, want) {
			t.Fatalf("trial %d: RangeIDs %v, scan reference %v", trial, got, want)
		}
		p := geo.Point{X: cx, Y: cy}
		wantN := scanIDs(t1, t2, func(ct *core.Compressed) (bool, error) {
			return f.eng.PassesNear(ct, p, half, t1, t2)
		})
		gotN, err := ix.NearbyIDs(p, half, t1, t2)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(gotN, wantN) {
			t.Fatalf("trial %d: NearbyIDs %v, scan reference %v", trial, gotN, wantN)
		}
	}
}

// A window before any trip starts matches nothing at either bucket width,
// even though the per-trajectory Range clamps it to each trip's first
// position.
func TestFleetIndexTimePruning(t *testing.T) {
	for _, width := range []float64{0, 100} {
		f, _, _, ix := incFixture(t, width)
		netMBR := f.ds.Graph.MBR()
		if got, err := ix.RangeIDs(-1e6, -1e5, netMBR); err != nil || len(got) != 0 {
			t.Errorf("width %v: pre-time window returned %v (%v)", width, got, err)
		}
		if got, err := ix.NearbyIDs(netMBR.Center(), 1e6, -1e6, -1e5); err != nil || len(got) != 0 {
			t.Errorf("width %v: pre-time nearby returned %v (%v)", width, got, err)
		}
	}
}

// An empty store indexes nothing and answers nothing.
func TestFleetIndexEmpty(t *testing.T) {
	f := newFixture(t, 0, 0)
	st, err := store.CreateSharded(filepath.Join(t.TempDir(), "empty"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ix, err := NewIncrementalFleetIndex(NewMustView(t, f, st), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.RefreshFromStore(st); err != nil {
		t.Fatal(err)
	}
	if got, err := ix.RangeIDs(0, 1e9, f.ds.Graph.MBR()); err != nil || len(got) != 0 || ix.Len() != 0 {
		t.Errorf("empty index: len %d, query %v (%v)", ix.Len(), got, err)
	}
	if got, err := ix.NearbyIDs(f.ds.Graph.MBR().Center(), 1e6, 0, 1e9); err != nil || len(got) != 0 {
		t.Errorf("empty index nearby: %v (%v)", got, err)
	}
}

// Upsert and Delete keep the index in sync without refreshes, including
// the swap-delete path and re-insertion into a different time bucket.
func TestIncrementalUpsertDelete(t *testing.T) {
	f, st, _, ix := incFixture(t, 100)
	all := f.ds.Graph.MBR()
	// Baseline: everything matches the whole-world query.
	ids, err := ix.RangeIDs(0, 1e9, all)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(f.cts) {
		t.Fatalf("baseline hit %d ids, want %d", len(ids), len(f.cts))
	}
	// Delete half the fleet from the index only.
	for i := 0; i < len(f.cts); i += 2 {
		ix.Delete(uint64(i))
	}
	ids, err = ix.RangeIDs(0, 1e9, all)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id%2 == 0 {
			t.Fatalf("deleted id %d still returned", id)
		}
	}
	if len(ids) != len(f.cts)/2 {
		t.Fatalf("after deletes: %d ids, want %d", len(ids), len(f.cts)/2)
	}
	// Re-upsert with nil summary: resolved through the view/store.
	for i := 0; i < len(f.cts); i += 2 {
		if err := ix.Upsert(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	ids, err = ix.RangeIDs(0, 1e9, all)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(f.cts) {
		t.Fatalf("after re-upserts: %d ids, want %d", len(ids), len(f.cts))
	}
	// Replace a record in the store, upsert, and confirm the index answer
	// tracks the new record rather than the old one.
	if err := st.Append(0, f.cts[1]); err != nil {
		t.Fatal(err)
	}
	if err := ix.Upsert(0, nil); err != nil {
		t.Fatal(err)
	}
	_, sum1, err := NewMustView(t, f, st).Summary(1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.RangeIDs(sum1.T0, sum1.T1, sum1.MBR)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range got {
		if id == 0 {
			found = true
		}
	}
	if !found {
		t.Error("replaced record (id 0 now = trip 1) not found in trip 1's window")
	}
	st2 := ix.Stats()
	if st2.Upserts == 0 || st2.Deletes == 0 {
		t.Errorf("counters not advancing: %+v", st2)
	}
	// Deleting an absent id is a no-op.
	before := ix.Stats().Deletes
	ix.Delete(999999)
	if ix.Stats().Deletes != before {
		t.Error("deleting an absent id bumped the counter")
	}
}

// NewMustView is a small helper for tests that need a throwaway view.
func NewMustView(t *testing.T, f *fixture, st *store.ShardedStore) *View {
	t.Helper()
	v, err := NewView(f.eng, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// An empty-interval summary (no temporal data) must never surface as a
// candidate but must still be tracked and deletable.
func TestIncrementalEmptyInterval(t *testing.T) {
	f, _, v, _ := incFixture(t, 0)
	ix, err := NewIncrementalFleetIndex(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	empty := *f.cts[0].Summary
	empty.T0, empty.T1 = 1, 0 // inverted = empty
	if err := ix.Upsert(42, &empty); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 1 {
		t.Fatalf("len %d want 1", ix.Len())
	}
	ids, err := ix.RangeIDs(0, 1e9, f.ds.Graph.MBR())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("empty-interval entry matched: %v", ids)
	}
	ix.Delete(42)
	if ix.Len() != 0 {
		t.Fatalf("len %d want 0 after delete", ix.Len())
	}
}

// Pruning actually happens: with small buckets and a narrow window, whole
// buckets are skipped and summaries reject candidates before any verify.
func TestIncrementalPruning(t *testing.T) {
	f, _, _, ix := incFixture(t, 50)
	// A tiny window near the start of the day with a tiny rectangle.
	r := geo.NewMBR(geo.Point{X: 0, Y: 0}, geo.Point{X: 1, Y: 1})
	if _, err := ix.RangeIDs(0, 10, r); err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.BucketsSkipped == 0 && st.SummaryRejects == 0 {
		t.Errorf("no pruning recorded: %+v", st)
	}
	if st.Verifies > uint64(len(f.cts)) {
		t.Errorf("verified more than the fleet: %+v", st)
	}
	if _, err := NewIncrementalFleetIndex(nil, 0); err == nil {
		t.Error("nil view accepted")
	}
	if err := ix.RefreshFromStore(nil); err == nil {
		t.Error("nil scanner accepted")
	}
}
