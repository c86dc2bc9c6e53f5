package query

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
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

// Every View query must agree exactly with the direct Engine answer —
// cold, warm (cache hit), and with the cache disabled.
func TestViewMatchesEngine(t *testing.T) {
	f := newFixture(t, 0, 0)
	src := newMemSource()
	for i, ct := range f.cts {
		src.Put(uint64(i), ct)
	}
	cached, err := NewView(f.eng, src, NewCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	bypass, err := NewView(f.eng, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	netMBR := f.ds.Graph.MBR()
	for pass := 0; pass < 2; pass++ { // pass 1 runs warm on the cached view
		for i, ct := range f.cts {
			id := uint64(i)
			qt := ct.Temporal[0].T + rng.Float64()*300
			wantP, err := f.eng.WhereAt(ct, qt)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []*View{cached, bypass} {
				gotP, err := v.WhereAt(id, qt)
				if err != nil {
					t.Fatal(err)
				}
				if gotP != wantP {
					t.Fatalf("pass %d id %d: WhereAt %v want %v", pass, id, gotP, wantP)
				}
			}
			p := geo.Point{
				X: netMBR.MinX + rng.Float64()*(netMBR.MaxX-netMBR.MinX),
				Y: netMBR.MinY + rng.Float64()*(netMBR.MaxY-netMBR.MinY),
			}
			wantT, errWant := f.eng.WhenAt(ct, p)
			for _, v := range []*View{cached, bypass} {
				gotT, errGot := v.WhenAt(id, p)
				if (errWant == nil) != (errGot == nil) || (errWant == nil && gotT != wantT) {
					t.Fatalf("pass %d id %d: WhenAt %v/%v want %v/%v", pass, id, gotT, errGot, wantT, errWant)
				}
			}
			half := 50 + rng.Float64()*300
			r := geo.NewMBR(geo.Point{X: p.X - half, Y: p.Y - half}, geo.Point{X: p.X + half, Y: p.Y + half})
			t1 := rng.Float64() * 400
			t2 := t1 + rng.Float64()*400
			wantHit, err := f.eng.Range(ct, t1, t2, r)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []*View{cached, bypass} {
				gotHit, err := v.Range(id, t1, t2, r)
				if err != nil {
					t.Fatal(err)
				}
				if gotHit != wantHit {
					t.Fatalf("pass %d id %d: Range %v want %v", pass, id, gotHit, wantHit)
				}
			}
			wantNear, err := f.eng.PassesNear(ct, p, half, 0, 1e9)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []*View{cached, bypass} {
				gotNear, err := v.PassesNear(id, p, half, 0, 1e9)
				if err != nil {
					t.Fatal(err)
				}
				if gotNear != wantNear {
					t.Fatalf("pass %d id %d: PassesNear %v want %v", pass, id, gotNear, wantNear)
				}
			}
		}
	}
	// MinDistance across views.
	for i := 0; i+1 < len(f.cts) && i < 6; i += 2 {
		want, err := f.eng.MinDistance(f.cts[i], f.cts[i+1])
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []*View{cached, bypass} {
			got, err := v.MinDistance(uint64(i), uint64(i+1))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("pair %d: MinDistance %v want %v", i, got, want)
			}
		}
	}
	st := cached.CacheStats()
	if st.Hits == 0 {
		t.Error("warm pass produced no cache hits")
	}
	// The cached view decodes each vehicle at most once.
	if cached.Decodes() > uint64(len(f.cts)) {
		t.Errorf("cached view decoded %d times for %d vehicles", cached.Decodes(), len(f.cts))
	}
	if _, err := cached.WhereAt(99999, 0); err == nil {
		t.Error("unknown id accepted")
	}
}

// Replacing a record under the same id must invalidate its cache entry:
// the revision changes, so the next query decodes the new record.
func TestViewCacheInvalidationOnReplace(t *testing.T) {
	f := newFixture(t, 0, 0)
	src := newMemSource()
	src.Put(7, f.cts[0])
	v, err := NewView(f.eng, src, NewCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	qt := f.cts[0].Temporal[0].T
	if _, err := v.WhereAt(7, qt); err != nil {
		t.Fatal(err)
	}
	if _, err := v.WhereAt(7, qt); err != nil { // warm hit
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
		t.Fatalf("stale cache served: got %v want %v", got, want)
	}
	if v.Decodes() != 2 {
		t.Errorf("decodes = %d want 2 (one per revision)", v.Decodes())
	}
}

// Summary resolution order: persisted summary without decoding; computed
// + memoized when the store has none.
func TestViewSummary(t *testing.T) {
	f := newFixture(t, 0, 0)
	withSum := newMemSource()
	noSum := newMemSource()
	for i, ct := range f.cts {
		withSum.Put(uint64(i), ct)
		noSum.Put(uint64(i), stripped(ct))
	}
	v1, _ := NewView(f.eng, withSum, NewCache(1<<20))
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
	v2, _ := NewView(f.eng, noSum, NewCache(1<<20))
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
	if v2.Decodes() > uint64(len(f.cts)) {
		t.Errorf("summary memoization failed: %d decodes for %d vehicles", v2.Decodes(), len(f.cts))
	}
}

// LRU eviction at a tiny budget: the cache must stay within bounds, evict
// strictly, and never corrupt answers.
func TestCacheEvictionTinyBudget(t *testing.T) {
	f := newFixture(t, 0, 0)
	src := newMemSource()
	for i, ct := range f.cts {
		src.Put(uint64(i), ct)
	}
	// Budget fits only a couple of decoded vehicles.
	cache := NewCache(2 * 1024)
	v, err := NewView(f.eng, src, cache)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		i := rng.Intn(len(f.cts))
		ct := f.cts[i]
		qt := ct.Temporal[0].T + rng.Float64()*300
		got, err := v.WhereAt(uint64(i), qt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.eng.WhereAt(ct, qt)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d id %d: %v want %v", trial, i, got, want)
		}
		st := cache.Stats()
		if st.Bytes > st.MaxBytes {
			t.Fatalf("trial %d: cache over budget: %d > %d", trial, st.Bytes, st.MaxBytes)
		}
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Error("tiny budget never evicted")
	}
	if st.Entries == 0 {
		t.Error("cache ended empty — nothing was ever admitted")
	}
	// Nil cache (budget <= 0) must behave as cache-off, not crash.
	if NewCache(0) != nil {
		t.Fatal("NewCache(0) should be nil")
	}
	var nilCache *Cache
	if _, ok := nilCache.getDecoded(1, 1); ok {
		t.Error("nil cache hit")
	}
	nilCache.putSummary(1, 1, &core.BoundingSummary{})
	if s := nilCache.Stats(); s != (CacheStats{}) {
		t.Errorf("nil cache stats = %+v", s)
	}
}

// The property test of the satellite task: under concurrent ingest and
// replacement, a cached view and a cache-bypassed view must give
// identical answers for any record state that is stable at query time.
// Run with -race: this also exercises cache/store synchronization.
func TestCachedVsBypassConcurrent(t *testing.T) {
	f := newFixture(t, 0, 0)
	dir := filepath.Join(t.TempDir(), "fleet")
	st, err := store.CreateSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const stable = 10 // ids 0..9 never change after setup
	for i := 0; i < stable; i++ {
		if err := st.Append(uint64(i), f.cts[i]); err != nil {
			t.Fatal(err)
		}
	}
	cached, err := NewView(f.eng, st, NewCache(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	bypass, err := NewView(f.eng, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	// Churn: bounded appends and replaces on the volatile id space,
	// concurrent with the queriers below. (Bounded, not loop-until-stop: an
	// unthrottled append loop starves the readers on the shard locks.)
	const churn = 2000
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < churn; i++ {
			id := uint64(100 + i%20)
			if err := st.Append(id, f.cts[i%len(f.cts)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// A churn reader keeps the cache busy on the volatile ids too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < churn; j++ {
			_, _ = cached.WhereAt(uint64(100+j%20), 30)
		}
	}()
	// Queriers: stable ids must answer identically on both views.
	netMBR := f.ds.Graph.MBR()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 150; trial++ {
				id := uint64(rng.Intn(stable))
				qt := rng.Float64() * 600
				a, errA := cached.WhereAt(id, qt)
				b, errB := bypass.WhereAt(id, qt)
				if (errA == nil) != (errB == nil) || a != b {
					t.Errorf("id %d t=%v: cached %v/%v bypass %v/%v", id, qt, a, errA, b, errB)
					return
				}
				cx := netMBR.MinX + rng.Float64()*(netMBR.MaxX-netMBR.MinX)
				cy := netMBR.MinY + rng.Float64()*(netMBR.MaxY-netMBR.MinY)
				r := geo.NewMBR(geo.Point{X: cx - 200, Y: cy - 200}, geo.Point{X: cx + 200, Y: cy + 200})
				ra, errA := cached.Range(id, qt, qt+300, r)
				rb, errB := bypass.Range(id, qt, qt+300, r)
				if (errA == nil) != (errB == nil) || ra != rb {
					t.Errorf("id %d: cached range %v/%v bypass %v/%v", id, ra, errA, rb, errB)
					return
				}
			}
		}(int64(17 + w))
	}
	wg.Wait()
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

// Identical repeated point queries must be served from the result memo —
// no decode-cache walk, no unit interpolation — and the memoized answer
// must be bitwise the fresh one. Replacing the record changes the revision
// in the key, so the memo can never serve a stale answer.
func TestViewResultMemo(t *testing.T) {
	f := newFixture(t, 0, 0)
	src := newMemSource()
	src.Put(7, f.cts[0])
	v, err := NewView(f.eng, src, NewCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	qt := f.cts[0].Temporal[0].T
	cold, err := v.WhereAt(7, qt)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := v.WhereAt(7, qt)
	if err != nil {
		t.Fatal(err)
	}
	if cold != warm {
		t.Fatalf("memoized WhereAt = %v, fresh %v", warm, cold)
	}
	coldT, err := v.WhenAt(7, cold)
	if err != nil {
		t.Fatal(err)
	}
	warmT, err := v.WhenAt(7, cold)
	if err != nil {
		t.Fatal(err)
	}
	if coldT != warmT {
		t.Fatalf("memoized WhenAt = %v, fresh %v", warmT, coldT)
	}
	st := v.CacheStats()
	if st.ResultHits != 2 {
		t.Errorf("result hits = %d, want 2 (one per repeated query)", st.ResultHits)
	}
	if st.ResultEntries != 2 {
		t.Errorf("result entries = %d, want 2", st.ResultEntries)
	}

	// Replace the record: the same arguments must recompute at the new
	// revision, not serve the old answer.
	src.Put(7, f.cts[1])
	qt2 := f.cts[1].Temporal[0].T
	got, err := v.WhereAt(7, qt2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.eng.WhereAt(f.cts[1], qt2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-replace WhereAt = %v, want %v", got, want)
	}
}

// A nil cache disables the memo without changing any answer.
func TestViewResultMemoCacheOff(t *testing.T) {
	f := newFixture(t, 0, 0)
	src := newMemSource()
	src.Put(3, f.cts[0])
	v, err := NewView(f.eng, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	qt := f.cts[0].Temporal[0].T
	a, err := v.WhereAt(3, qt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := v.WhereAt(3, qt)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("cache-off WhereAt unstable: %v then %v", a, b)
	}
	if st := v.CacheStats(); st.ResultHits != 0 || st.ResultMisses != 0 {
		t.Fatalf("nil cache counted memo traffic: %+v", st)
	}
}

// A NaN query argument never compares equal to itself, so a memoized
// NaN-keyed answer could neither hit nor be evicted from the map: the LRU
// list drained while the map kept growing, and the next eviction
// dereferenced nil. Such keys must not be memoized at all.
func TestResultMemoSkipsNaNKeys(t *testing.T) {
	c := NewCache(1 << 20)
	for i := 0; i <= resultMemoEntries; i++ {
		c.putResult(resultKey{id: 1, kind: resultWhereAt, a: math.NaN()}, 0, 0, nil)
		c.putResult(resultKey{id: 1, kind: resultWhenAt, a: 1, b: math.NaN()}, 0, 0, nil)
	}
	c.putResult(resultKey{id: 1, kind: resultWhereAt, a: 1}, 2, 3, nil)
	if n := len(c.resItems); n > resultMemoEntries || n != c.resLL.Len() {
		t.Fatalf("memo holds %d map entries and %d list entries (cap %d)", n, c.resLL.Len(), resultMemoEntries)
	}
	if x, y, _, ok := c.getResult(resultKey{id: 1, kind: resultWhereAt, a: 1}); !ok || x != 2 || y != 3 {
		t.Fatalf("normal key after NaN puts = (%v, %v, %v)", x, y, ok)
	}
}
