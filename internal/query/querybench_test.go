package query

import (
	"math/rand"
	"os"
	"sync"
	"testing"

	"press/internal/geo"
	"press/internal/store"
)

// In-package query benchmarks, kept here so the CI benchsmoke pass
// catches bit-rot: fleet range and per-flush upsert through the fleet
// index, and a single-vehicle query through the view. The perf ledger
// under bench/ measures the same paths end to end over HTTP (the query.*
// and server.handler_us.* rows); these isolate the in-process costs.

var (
	qbOnce sync.Once
	qbFix  *fixture
	qbST   *store.ShardedStore
	qbErr  error
)

func qbSetup(b *testing.B) (*fixture, *store.ShardedStore) {
	b.Helper()
	qbOnce.Do(func() {
		var t testing.TB = b
		qbFix = newFixture(t, 0, 0)
		dir, err := os.MkdirTemp("", "press-qb-*")
		if err != nil {
			qbErr = err
			return
		}
		qbST, qbErr = store.CreateSharded(dir, 4)
		if qbErr != nil {
			return
		}
		for i, ct := range qbFix.cts {
			if qbErr = qbST.Append(uint64(i), ct); qbErr != nil {
				return
			}
		}
	})
	if qbErr != nil {
		b.Fatal(qbErr)
	}
	return qbFix, qbST
}

func qbWindow(f *fixture, rng *rand.Rand) (float64, float64, geo.MBR) {
	net := f.ds.Graph.MBR()
	cx := net.MinX + rng.Float64()*(net.MaxX-net.MinX)
	cy := net.MinY + rng.Float64()*(net.MaxY-net.MinY)
	half := 200.0
	r := geo.NewMBR(geo.Point{X: cx - half, Y: cy - half}, geo.Point{X: cx + half, Y: cy + half})
	t1 := rng.Float64() * 400
	return t1, t1 + 200, r
}

// BenchmarkFleetRangeIncremental is a fleet range query through the
// fleet index: summary pruning plus exact verification.
func BenchmarkFleetRangeIncremental(b *testing.B) {
	f, st := qbSetup(b)
	v, err := NewView(f.eng, st, nil)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := NewIncrementalFleetIndex(v, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.RefreshFromStore(st); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1, t2, r := qbWindow(f, rng)
		if _, err := ix.RangeIDs(t1, t2, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalUpsert is the per-flush index maintenance cost: one
// in-place upsert, no store scan.
func BenchmarkIncrementalUpsert(b *testing.B) {
	f, st := qbSetup(b)
	v, err := NewView(f.eng, st, nil)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := NewIncrementalFleetIndex(v, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct := f.cts[i%len(f.cts)]
		if err := ix.Upsert(uint64(i%1000), ct.Summary); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewWhereAt is one single-vehicle query through the view: a
// store read plus the engine's lazy decode.
func BenchmarkViewWhereAt(b *testing.B) {
	f, st := qbSetup(b)
	v, err := NewView(f.eng, st, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(rng.Intn(len(f.cts)))
		if _, err := v.WhereAt(id, rng.Float64()*400); err != nil {
			b.Fatal(err)
		}
	}
}
