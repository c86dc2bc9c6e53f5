package query

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"press/internal/core"
	"press/internal/geo"
	"press/internal/store"
)

// memSource is an in-memory RecordSource/MetaScanner for view tests; revs
// bump on every Put like the real store's generation.
type memSource struct {
	mu   sync.RWMutex
	recs map[uint64]*core.Compressed
	revs map[uint64]uint64
	next uint64
}

func newMemSource() *memSource {
	return &memSource{recs: map[uint64]*core.Compressed{}, revs: map[uint64]uint64{}}
}

func (m *memSource) Put(id uint64, ct *core.Compressed) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.next++
	m.recs[id] = ct
	m.revs[id] = m.next
}

func (m *memSource) GetRecord(id uint64) (*core.Compressed, uint64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ct, ok := m.recs[id]
	if !ok {
		return nil, 0, fmt.Errorf("mem: %d not found", id)
	}
	return ct, m.revs[id], nil
}

func (m *memSource) StatRecord(id uint64) (uint64, *core.BoundingSummary, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ct, ok := m.recs[id]
	if !ok {
		return 0, nil, fmt.Errorf("mem: %d not found", id)
	}
	return m.revs[id], ct.Summary, nil
}

func (m *memSource) ScanMeta(fn func(id uint64, rev uint64, sum *core.BoundingSummary) error) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for id, ct := range m.recs {
		if err := fn(id, m.revs[id], ct.Summary); err != nil {
			return err
		}
	}
	return nil
}

// stripped clones a compressed record without its summary, simulating
// records stored without a summary.
func stripped(ct *core.Compressed) *core.Compressed {
	c := *ct
	c.Summary = nil
	return &c
}

// Every View query must agree exactly with the direct Engine answer on the
// same record, and each read must fetch and decode exactly one record.
func TestViewMatchesEngine(t *testing.T) {
	f := newFixture(t, 0, 0)
	src := newMemSource()
	for i, ct := range f.cts {
		src.Put(uint64(i), ct)
	}
	v, err := NewView(f.eng, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	netMBR := f.ds.Graph.MBR()
	reads := uint64(0)
	for i, ct := range f.cts {
		id := uint64(i)
		qt := ct.Temporal[0].T + rng.Float64()*300
		wantP, err := f.eng.WhereAt(ct, qt)
		if err != nil {
			t.Fatal(err)
		}
		gotP, err := v.WhereAt(id, qt)
		if err != nil {
			t.Fatal(err)
		}
		if gotP != wantP {
			t.Fatalf("id %d: WhereAt %v want %v", id, gotP, wantP)
		}
		p := geo.Point{
			X: netMBR.MinX + rng.Float64()*(netMBR.MaxX-netMBR.MinX),
			Y: netMBR.MinY + rng.Float64()*(netMBR.MaxY-netMBR.MinY),
		}
		wantT, errWant := f.eng.WhenAt(ct, p)
		gotT, errGot := v.WhenAt(id, p)
		if (errWant == nil) != (errGot == nil) || (errWant == nil && gotT != wantT) {
			t.Fatalf("id %d: WhenAt %v/%v want %v/%v", id, gotT, errGot, wantT, errWant)
		}
		half := 50 + rng.Float64()*300
		r := geo.NewMBR(geo.Point{X: p.X - half, Y: p.Y - half}, geo.Point{X: p.X + half, Y: p.Y + half})
		t1 := rng.Float64() * 400
		t2 := t1 + rng.Float64()*400
		wantHit, err := f.eng.Range(ct, t1, t2, r)
		if err != nil {
			t.Fatal(err)
		}
		gotHit, err := v.Range(id, t1, t2, r)
		if err != nil {
			t.Fatal(err)
		}
		if gotHit != wantHit {
			t.Fatalf("id %d: Range %v want %v", id, gotHit, wantHit)
		}
		wantNear, err := f.eng.PassesNear(ct, p, half, 0, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		gotNear, err := v.PassesNear(id, p, half, 0, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		if gotNear != wantNear {
			t.Fatalf("id %d: PassesNear %v want %v", id, gotNear, wantNear)
		}
		reads += 4
	}
	for i := 0; i+1 < len(f.cts) && i < 6; i += 2 {
		want, err := f.eng.MinDistance(f.cts[i], f.cts[i+1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.MinDistance(uint64(i), uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("pair %d: MinDistance %v want %v", i, got, want)
		}
		reads += 2
	}
	if v.Decodes() != reads {
		t.Errorf("view decoded %d records for %d record reads", v.Decodes(), reads)
	}
	if _, err := v.WhereAt(99999, 0); err == nil {
		t.Error("unknown id accepted")
	}
}

// A record replaced under the same id is served from the next query on:
// the view holds no decoded state that could go stale.
func TestViewServesReplacedRecord(t *testing.T) {
	f := newFixture(t, 0, 0)
	src := newMemSource()
	src.Put(7, f.cts[0])
	v, err := NewView(f.eng, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	qt := f.cts[0].Temporal[0].T
	if _, err := v.WhereAt(7, qt); err != nil {
		t.Fatal(err)
	}
	src.Put(7, f.cts[1]) // replace
	got, err := v.WhereAt(7, f.cts[1].Temporal[0].T)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.eng.WhereAt(f.cts[1], f.cts[1].Temporal[0].T)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("stale record served: got %v want %v", got, want)
	}
}

// Summary resolution order: the persisted summary without decoding; one
// derived by a decode when the store has none.
func TestViewSummary(t *testing.T) {
	f := newFixture(t, 0, 0)
	withSum := newMemSource()
	noSum := newMemSource()
	for i, ct := range f.cts {
		withSum.Put(uint64(i), ct)
		noSum.Put(uint64(i), stripped(ct))
	}
	v1, _ := NewView(f.eng, withSum, nil)
	for i, ct := range f.cts {
		_, sum, err := v1.Summary(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if *sum != *ct.Summary {
			t.Fatalf("id %d: summary %+v want %+v", i, sum, ct.Summary)
		}
	}
	if v1.Decodes() != 0 {
		t.Errorf("persisted summaries should need no decodes, got %d", v1.Decodes())
	}
	v2, _ := NewView(f.eng, noSum, nil)
	for pass := 0; pass < 2; pass++ {
		for i, ct := range f.cts {
			_, sum, err := v2.Summary(uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			// The computed MBR unions the same point set as the batch
			// path polyline; bounds must match exactly.
			if sum.MBR != ct.Summary.MBR || sum.T0 != ct.Summary.T0 || sum.T1 != ct.Summary.T1 {
				t.Fatalf("id %d: computed summary %+v want %+v", i, sum, ct.Summary)
			}
		}
	}
	if want := 2 * uint64(len(f.cts)); v2.Decodes() != want {
		t.Errorf("%d decodes for %d summaries, want one each", v2.Decodes(), want)
	}
}

// Under concurrent appends and replaces of the very ids being queried,
// every View answer must equal the Engine's answer on the record revision
// the View read. A query counts only when the id's revision is the same
// before and after it: revisions are unique per stored record, so the View
// then read exactly the record compared against. Run with -race.
func TestViewMatchesEngineUnderChurn(t *testing.T) {
	f := newFixture(t, 0, 0)
	dir := filepath.Join(t.TempDir(), "fleet")
	st, err := store.CreateSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const ids = 10
	for i := 0; i < ids; i++ {
		if err := st.Append(uint64(i), f.cts[i]); err != nil {
			t.Fatal(err)
		}
	}
	v, err := NewView(f.eng, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Churn: replaces of the queried ids plus appends of new ones, until
	// the queriers finish. Each write yields, so the churn cannot starve
	// the readers on the shard locks.
	done := make(chan struct{})
	var churn sync.WaitGroup
	for w := 0; w < 2; w++ {
		churn.Add(1)
		go func(w int) {
			defer churn.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				id := uint64(i % ids)
				if w == 1 {
					id = uint64(100 + i%20)
				}
				if err := st.Append(id, f.cts[(i+w)%len(f.cts)]); err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched()
			}
		}(w)
	}
	var wg sync.WaitGroup
	var compared, skipped atomic.Uint64
	netMBR := f.ds.Graph.MBR()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 150; trial++ {
				id := uint64(rng.Intn(ids))
				qt := rng.Float64() * 600
				cx := netMBR.MinX + rng.Float64()*(netMBR.MaxX-netMBR.MinX)
				cy := netMBR.MinY + rng.Float64()*(netMBR.MaxY-netMBR.MinY)
				r := geo.NewMBR(geo.Point{X: cx - 200, Y: cy - 200}, geo.Point{X: cx + 200, Y: cy + 200})
				before, _, err := st.StatRecord(id)
				if err != nil {
					t.Error(err)
					return
				}
				p, errP := v.WhereAt(id, qt)
				hit, errR := v.Range(id, qt, qt+300, r)
				ct, after, err := st.GetRecord(id)
				if err != nil {
					t.Error(err)
					return
				}
				if before != after {
					skipped.Add(1)
					continue
				}
				wantP, errWantP := f.eng.WhereAt(ct, qt)
				wantHit, errWantR := f.eng.Range(ct, qt, qt+300, r)
				if (errP == nil) != (errWantP == nil) || p != wantP {
					t.Errorf("id %d rev %d t=%v: view %v/%v engine %v/%v", id, after, qt, p, errP, wantP, errWantP)
					return
				}
				if (errR == nil) != (errWantR == nil) || hit != wantHit {
					t.Errorf("id %d rev %d: view range %v/%v engine %v/%v", id, after, hit, errR, wantHit, errWantR)
					return
				}
				compared.Add(1)
			}
		}(int64(17 + w))
	}
	wg.Wait()
	close(done)
	churn.Wait()
	t.Logf("compared %d, skipped %d", compared.Load(), skipped.Load())
	if compared.Load() == 0 {
		t.Error("no query saw a stable revision; nothing was compared")
	}
}

// View constructor validation.
func TestNewViewValidation(t *testing.T) {
	f := newFixture(t, 0, 0)
	if _, err := NewView(nil, newMemSource(), nil); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewView(f.eng, nil, nil); err == nil {
		t.Error("nil source accepted")
	}
	if !errors.Is(errNotUsed, errNotUsed) {
		t.Error("sanity")
	}
}

var errNotUsed = errors.New("x")
