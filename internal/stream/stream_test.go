package stream

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"press/internal/core"
	"press/internal/gen"
	"press/internal/roadnet"
	"press/internal/spindex"
	"press/internal/store"
	"press/internal/traj"
)

// fixture builds a compressor over a small synthetic fleet plus a sharded
// store to flush into.
func fixture(t *testing.T) (*core.Compressor, *gen.Dataset, *store.ShardedStore) {
	t.Helper()
	opt := gen.Default(24)
	opt.City.Rows, opt.City.Cols = 6, 6
	ds, err := gen.Generate(opt)
	if err != nil {
		t.Fatal(err)
	}
	tab := spindex.NewTable(ds.Graph)
	corpus := make([]traj.Path, 0, 12)
	for _, p := range ds.Trips[:12] {
		corpus = append(corpus, core.SPCompress(tab, p))
	}
	cb, err := core.Train(corpus, core.TrainOptions{NumEdges: ds.Graph.NumEdges(), Theta: 3})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := core.NewCompressor(ds.Graph, tab, cb, 50, 30)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.CreateSharded(t.TempDir()+"/fleet", 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return comp, ds, st
}

// feed pushes a full trajectory into vehicle id's session, interleaving
// edges and samples like a live feed.
func feed(t *testing.T, m *Manager, id uint64, tr *traj.Trajectory) {
	t.Helper()
	err := tr.Replay(
		func(e roadnet.EdgeID) error { return m.PushEdge(id, e) },
		func(p traj.Entry) error { return m.PushSample(id, p) },
	)
	if err != nil {
		t.Fatal(err)
	}
}

// Each flushed session record must be byte-identical to the batch
// compression of the same trajectory, retrievable from the store by id.
func TestSessionFlushMatchesBatch(t *testing.T) {
	comp, ds, st := fixture(t)
	m, err := NewManager(context.Background(), comp, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i, tr := range ds.Truth {
		id := uint64(i)
		feed(t, m, id, tr)
		if err := m.Flush(id); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
		want, err := comp.Compress(tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Get(id)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("trajectory %d: stored session bytes differ from batch", i)
		}
	}
	if got := m.Flushed(); got != uint64(len(ds.Truth)) {
		t.Fatalf("Flushed() = %d, want %d", got, len(ds.Truth))
	}
	if m.Active() != 0 {
		t.Fatalf("%d sessions still open after flushes", m.Active())
	}
	if err := m.Flush(12345); err != nil {
		t.Fatalf("flushing an unknown id: %v", err)
	}
}

// A vehicle that goes dark must be auto-flushed by the idle sweeper.
func TestIdleAutoFlush(t *testing.T) {
	comp, ds, st := fixture(t)
	m, err := NewManager(context.Background(), comp, st, Options{
		IdleFlush:  40 * time.Millisecond,
		SweepEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tr := ds.Truth[0]
	const id = 7
	feed(t, m, id, tr)
	if m.Active() != 1 {
		t.Fatalf("Active() = %d after pushes", m.Active())
	}
	deadline := time.Now().Add(30 * time.Second)
	for m.Active() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m.Active() != 0 {
		t.Fatal("idle session never auto-flushed")
	}
	want, err := comp.Compress(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(id)
	if err != nil {
		t.Fatalf("auto-flushed record unreadable: %v", err)
	}
	if !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Fatal("auto-flushed bytes differ from batch")
	}
	// A new push for the same id opens a fresh trajectory.
	if err := m.PushEdge(id, tr.Path[0]); err != nil {
		t.Fatal(err)
	}
	if m.Active() != 1 {
		t.Fatalf("Active() = %d after post-flush push", m.Active())
	}
}

// Concurrent vehicles: every session must land intact under -race, with
// parallel pushes across sessions and a concurrent explicit flusher.
func TestConcurrentVehicles(t *testing.T) {
	comp, ds, st := fixture(t)
	m, err := NewManager(context.Background(), comp, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(ds.Truth)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := uint64(i)
			tr := ds.Truth[i]
			feed(t, m, id, tr)
			if err := m.Flush(id); err != nil {
				t.Errorf("flush %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want, err := comp.Compress(ds.Truth[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Get(uint64(i))
		if err != nil {
			t.Fatalf("vehicle %d: %v", i, err)
		}
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("vehicle %d: stored bytes differ from batch", i)
		}
	}
}

// Shutdown mid-stream: open sessions flush, the store stays readable, no
// goroutines are left behind, and later pushes fail with ErrManagerClosed.
func TestShutdownMidStream(t *testing.T) {
	comp, ds, st := fixture(t)
	before := runtime.NumGoroutine()
	m, err := NewManager(context.Background(), comp, st, Options{
		IdleFlush:  time.Hour, // sweeper alive but never firing
		SweepEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const vehicles = 6
	for i := 0; i < vehicles; i++ {
		feed(t, m, uint64(i), ds.Truth[i]) // sessions left open: mid-stream
	}
	if m.Active() != vehicles {
		t.Fatalf("Active() = %d, want %d", m.Active(), vehicles)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := m.PushEdge(0, ds.Truth[0].Path[0]); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("push after Shutdown = %v, want ErrManagerClosed", err)
	}
	if m.Active() != 0 {
		t.Fatalf("%d sessions open after Shutdown", m.Active())
	}
	// Every accepted session landed; the store reopens cleanly.
	if st.Len() != vehicles {
		t.Fatalf("store has %d records, want %d", st.Len(), vehicles)
	}
	dir := st.Dir()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.OpenSharded(dir)
	if err != nil {
		t.Fatalf("store unreadable after shutdown: %v", err)
	}
	defer st2.Close()
	for i := 0; i < vehicles; i++ {
		want, err := comp.Compress(ds.Truth[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := st2.Get(uint64(i))
		if err != nil {
			t.Fatalf("vehicle %d after reopen: %v", i, err)
		}
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("vehicle %d: bytes differ after reopen", i)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// Cancelling the lifetime context discards open sessions; what the sink
// already holds stays readable.
func TestLifetimeCancelDiscards(t *testing.T) {
	comp, ds, st := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	m, err := NewManager(ctx, comp, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, m, 1, ds.Truth[1])
	if err := m.Flush(1); err != nil {
		t.Fatal(err)
	}
	feed(t, m, 2, ds.Truth[2]) // left open, will be discarded
	cancel()
	if err := m.PushEdge(3, ds.Truth[3].Path[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("push after cancel = %v, want context.Canceled", err)
	}
	if err := m.Shutdown(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown after cancel = %v, want context.Canceled", err)
	}
	if st.Len() != 1 {
		t.Fatalf("store has %d records, want only the pre-cancel flush", st.Len())
	}
	if _, err := st.Get(1); err != nil {
		t.Fatalf("pre-cancel record unreadable: %v", err)
	}
}

// refuseSink rejects appends for one vehicle and stores the rest.
type refuseSink struct {
	Sink
	id uint64
}

func (s refuseSink) Append(id uint64, ct *core.Compressed) error {
	if id == s.id {
		return errors.New("sink refuses this vehicle")
	}
	return s.Sink.Append(id, ct)
}

// A flush that fails surfaces its error and must not wedge the session map.
func TestFlushErrorSurfaces(t *testing.T) {
	comp, ds, st := fixture(t)
	m, err := NewManager(context.Background(), comp, refuseSink{Sink: st, id: 9}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	feed(t, m, 9, ds.Truth[1])
	if err := m.Flush(9); err == nil {
		t.Fatal("flush into a refusing sink succeeded")
	}
	if m.Active() != 0 {
		t.Fatal("failed session left open")
	}
	// The manager keeps serving other vehicles.
	feed(t, m, 10, ds.Truth[0])
	if err := m.Flush(10); err != nil {
		t.Fatal(err)
	}
}

// failAppendSink rejects every append.
type failAppendSink struct{}

func (failAppendSink) Append(uint64, *core.Compressed) error {
	return errors.New("sink down")
}

// Background idle-sweep flush failures reach the OnError observer and the
// first one surfaces from Shutdown.
func TestSweepFlushErrorObserved(t *testing.T) {
	comp, ds, _ := fixture(t)
	var mu sync.Mutex
	var seen []uint64
	m, err := NewManager(context.Background(), comp, failAppendSink{}, Options{
		IdleFlush:  30 * time.Millisecond,
		SweepEvery: 10 * time.Millisecond,
		OnError: func(id uint64, err error) {
			mu.Lock()
			seen = append(seen, id)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, m, 5, ds.Truth[0])
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	if len(seen) == 0 || seen[0] != 5 {
		mu.Unlock()
		t.Fatal("sweep flush failure never reached OnError")
	}
	mu.Unlock()
	if err := m.Shutdown(context.Background()); err == nil {
		t.Fatal("Shutdown swallowed the background flush failure")
	}
}

// slowSink delays every append; used to race session visibility against
// the sink write.
type slowSink struct {
	st *store.ShardedStore
}

func (s slowSink) Append(id uint64, ct *core.Compressed) error {
	time.Sleep(20 * time.Millisecond)
	return s.st.Append(id, ct)
}

// Active() must not report a session gone until its record is actually in
// the sink: a consumer that waits for Active()==0 and then reads the store
// must always find the record.
func TestFlushVisibleBeforeSessionDisappears(t *testing.T) {
	comp, ds, st := fixture(t)
	m, err := NewManager(context.Background(), comp, slowSink{st}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	feed(t, m, 42, ds.Truth[0])
	done := make(chan error, 1)
	go func() { done <- m.Flush(42) }()
	deadline := time.Now().Add(30 * time.Second)
	for m.Active() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if m.Active() != 0 {
		t.Fatal("flush never completed")
	}
	// The instant the session count hits zero the record must be readable.
	if _, err := st.Get(42); err != nil {
		t.Fatalf("Active()==0 but record not in the sink yet: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// A push that drives a session past MaxSessionBytes must force-flush it —
// point included, ErrSessionTooLarge returned — and the next push must open
// a fresh session. Concatenating the decompressed paths of every record the
// breaches produced (plus the final explicit flush) must recover the full
// pushed edge sequence exactly: the cap truncates trajectories, it never
// drops data.
func TestSessionMemoryCapForceFlush(t *testing.T) {
	comp, ds, st := fixture(t)
	// Zero temporal bounds make BTC retain nearly every sample of the noisy
	// synthetic feed, so the session's retained memory actually grows.
	strict, err := core.NewCompressor(comp.Graph, comp.SP, comp.CB, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(context.Background(), strict, st, Options{MaxSessionBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const id = 3
	// The longest available trajectory, fed three times over (as three
	// consecutive trips of one vehicle) to guarantee breaches.
	tr := ds.Truth[0]
	for _, cand := range ds.Truth {
		if len(cand.Path) > len(tr.Path) {
			tr = cand
		}
	}
	var pushed []roadnet.EdgeID
	breaches := 0
	for rep := 0; rep < 3; rep++ {
		// Later reps continue the vehicle's stream, so T stays strictly
		// increasing and D non-decreasing (the session spans the reps).
		off := float64(rep) * (tr.Temporal[len(tr.Temporal)-1].T + 60)
		dOff := float64(rep) * (tr.Temporal[len(tr.Temporal)-1].D + 1)
		err := tr.Replay(
			func(e roadnet.EdgeID) error {
				err := m.PushEdge(id, e)
				if errors.Is(err, ErrSessionTooLarge) {
					breaches++
					// The session was flushed around this point: its record
					// must already be in the sink.
					if _, gerr := st.Get(id); gerr != nil {
						return gerr
					}
					err = nil
				}
				if err == nil {
					pushed = append(pushed, e)
				}
				return err
			},
			func(p traj.Entry) error {
				err := m.PushSample(id, traj.Entry{D: p.D + dOff, T: p.T + off})
				if errors.Is(err, ErrSessionTooLarge) {
					breaches++
					err = nil
				}
				return err
			},
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(id); err != nil {
		t.Fatal(err)
	}
	if breaches == 0 {
		t.Fatal("cap of 256 bytes never breached over 3 replays; MemoryBytes not growing?")
	}
	// Every breach plus the final flush appended one record.
	if got := st.Len(); got != breaches+1 {
		t.Fatalf("store has %d records, want %d (breaches) + 1", got, breaches)
	}
	// Spatial losslessness across the cut points: the segments concatenate
	// back to exactly the pushed edge sequence.
	var recovered []roadnet.EdgeID
	err = st.Scan(func(_ uint64, ct *core.Compressed) error {
		seg, err := strict.Decompress(ct)
		if err != nil {
			return err
		}
		recovered = append(recovered, seg.Path...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != len(pushed) {
		t.Fatalf("recovered %d edges across segments, pushed %d", len(recovered), len(pushed))
	}
	for i := range pushed {
		if recovered[i] != pushed[i] {
			t.Fatalf("edge %d: recovered %d, pushed %d", i, recovered[i], pushed[i])
		}
	}
}

// A cap breach whose force-flush fails must NOT return the bare sentinel:
// callers (the HTTP 413 path) distinguish "cut but persisted" (err ==
// ErrSessionTooLarge) from "cut and lost" (sentinel joined with the sink
// error) — both match errors.Is.
func TestSessionCapFlushFailureJoins(t *testing.T) {
	comp, ds, _ := fixture(t)
	strict, err := core.NewCompressor(comp.Graph, comp.SP, comp.CB, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(context.Background(), strict, failAppendSink{}, Options{MaxSessionBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tr := ds.Truth[0]
	for _, cand := range ds.Truth {
		if len(cand.Path) > len(tr.Path) {
			tr = cand
		}
	}
	var got error
	_ = tr.Replay(
		func(e roadnet.EdgeID) error {
			if err := m.PushEdge(7, e); err != nil {
				got = err
				return err
			}
			return nil
		},
		func(p traj.Entry) error {
			if err := m.PushSample(7, p); err != nil {
				got = err
				return err
			}
			return nil
		},
	)
	if got == nil {
		t.Fatal("cap never breached against the failing sink")
	}
	if !errors.Is(got, ErrSessionTooLarge) {
		t.Fatalf("breach error %v does not match ErrSessionTooLarge", got)
	}
	if got == ErrSessionTooLarge {
		t.Fatal("failed force-flush returned the bare sentinel; the sink error was swallowed")
	}
	if m.Active() != 0 {
		t.Fatal("breached session left open after failed flush")
	}
}

// Without a cap, the same feed never sees ErrSessionTooLarge.
func TestSessionNoCapByDefault(t *testing.T) {
	comp, ds, st := fixture(t)
	m, err := NewManager(context.Background(), comp, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	feed(t, m, 8, ds.Truth[0]) // feed fails the test on any push error
	if err := m.Flush(8); err != nil {
		t.Fatal(err)
	}
}

// After an external lifetime cancel, Flush/FlushAll must refuse instead of
// persisting sessions the hard stop discarded.
func TestFlushRefusesAfterLifetimeCancel(t *testing.T) {
	comp, ds, st := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	m, err := NewManager(ctx, comp, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, m, 4, ds.Truth[4])
	cancel()
	if err := m.Flush(4); !errors.Is(err, context.Canceled) {
		t.Fatalf("Flush after cancel = %v, want context.Canceled", err)
	}
	if err := m.FlushAll(); !errors.Is(err, context.Canceled) {
		t.Fatalf("FlushAll after cancel = %v, want context.Canceled", err)
	}
	if st.Len() != 0 {
		t.Fatalf("discarded session reached the store (%d records)", st.Len())
	}
	if err := m.Shutdown(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown after cancel = %v", err)
	}
}

// OnFlush must fire exactly once per successful sink append, with the
// record that was appended, and never on failed appends.
func TestOnFlushHook(t *testing.T) {
	comp, ds, st := fixture(t)
	var mu sync.Mutex
	got := map[uint64]*core.Compressed{}
	m, err := NewManager(context.Background(), comp, st, Options{
		OnFlush: func(id uint64, ct *core.Compressed) {
			mu.Lock()
			got[id] = ct
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 4; i++ {
		feed(t, m, uint64(i), ds.Truth[i])
		if err := m.Flush(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(999); err != nil { // empty: no append, no hook
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 4 {
		t.Fatalf("hook fired for %d ids, want 4", len(got))
	}
	for i := 0; i < 4; i++ {
		stored, err := st.Get(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[uint64(i)].Marshal(), stored.Marshal()) {
			t.Fatalf("id %d: hook record differs from stored record", i)
		}
	}
}

// OnFlush must not fire when the sink append fails.
func TestOnFlushNotCalledOnAppendError(t *testing.T) {
	comp, ds, _ := fixture(t)
	fired := false
	m, err := NewManager(context.Background(), comp, failAppendSink{}, Options{
		OnFlush: func(uint64, *core.Compressed) { fired = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	feed(t, m, 1, ds.Truth[0])
	if err := m.Flush(1); err == nil {
		t.Fatal("append error not surfaced")
	}
	if fired {
		t.Error("OnFlush fired despite append failure")
	}
}

// obsStream converts a trajectory into the batched-push observation
// sequence: one Obs per replay event (edge or sample), the same order the
// per-point methods would see.
func obsStream(tr *traj.Trajectory) []Obs {
	var obs []Obs
	_ = tr.Replay(
		func(e roadnet.EdgeID) error {
			obs = append(obs, Obs{Edge: e})
			return nil
		},
		func(p traj.Entry) error {
			obs = append(obs, Obs{Edge: roadnet.NoEdge, Sample: p, HasSample: true})
			return nil
		},
	)
	return obs
}

// PushBatch must be observably identical to the per-point push methods:
// same accepted counts, same flushed records byte for byte.
func TestPushBatchMatchesPerPoint(t *testing.T) {
	comp, ds, st := fixture(t)
	m, err := NewManager(context.Background(), comp, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i, tr := range ds.Truth {
		batchID := uint64(2 * i)
		pointID := uint64(2*i + 1)
		obs := obsStream(tr)
		n, err := m.PushBatch(batchID, obs)
		if err != nil {
			t.Fatalf("PushBatch %d: %v", i, err)
		}
		if n != len(obs) {
			t.Fatalf("PushBatch %d accepted %d of %d", i, n, len(obs))
		}
		feed(t, m, pointID, tr)
		if err := m.Flush(batchID); err != nil {
			t.Fatal(err)
		}
		if err := m.Flush(pointID); err != nil {
			t.Fatal(err)
		}
		a, err := st.Get(batchID)
		if err != nil {
			t.Fatal(err)
		}
		b, err := st.Get(pointID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Marshal(), b.Marshal()) {
			t.Fatalf("trajectory %d: batched and per-point records differ", i)
		}
	}
}

// A batch that breaches the session cap mid-way is cut exactly like the
// per-point path: the breaching point is included and persisted, the
// accepted count says where, and resubmitting the remainder loses nothing.
func TestPushBatchCapBreach(t *testing.T) {
	comp, ds, st := fixture(t)
	strict, err := core.NewCompressor(comp.Graph, comp.SP, comp.CB, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(context.Background(), strict, st, Options{MaxSessionBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tr := ds.Truth[0]
	for _, cand := range ds.Truth {
		if len(cand.Path) > len(tr.Path) {
			tr = cand
		}
	}
	const id = 11
	obs := obsStream(tr)
	breaches := 0
	var pushedEdges []roadnet.EdgeID
	for len(obs) > 0 {
		n, err := m.PushBatch(id, obs)
		for _, o := range obs[:n] {
			if o.Edge != roadnet.NoEdge {
				pushedEdges = append(pushedEdges, o.Edge)
			}
		}
		if err == nil {
			if n != len(obs) {
				t.Fatalf("clean PushBatch accepted %d of %d", n, len(obs))
			}
			break
		}
		if !errors.Is(err, ErrSessionTooLarge) {
			t.Fatalf("PushBatch: %v", err)
		}
		if err != ErrSessionTooLarge {
			t.Fatalf("force-flush to a healthy sink joined an error: %v", err)
		}
		if n == 0 || n > len(obs) {
			t.Fatalf("breach accepted %d of %d", n, len(obs))
		}
		breaches++
		obs = obs[n:]
	}
	if breaches == 0 {
		t.Fatal("256-byte cap never breached by the longest trajectory")
	}
	if err := m.Flush(id); err != nil {
		t.Fatal(err)
	}
	if got := st.Len(); got != breaches+1 {
		t.Fatalf("store has %d records, want %d breaches + 1", got, breaches)
	}
	var recovered []roadnet.EdgeID
	err = st.Scan(func(_ uint64, ct *core.Compressed) error {
		seg, err := strict.Decompress(ct)
		if err != nil {
			return err
		}
		recovered = append(recovered, seg.Path...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != len(pushedEdges) {
		t.Fatalf("recovered %d edges across segments, pushed %d", len(recovered), len(pushedEdges))
	}
	for i := range pushedEdges {
		if recovered[i] != pushedEdges[i] {
			t.Fatalf("edge %d: recovered %d, pushed %d", i, recovered[i], pushedEdges[i])
		}
	}
}

// PushBatch refuses like the per-point path after Shutdown, including for
// empty batches (which must not open a session either way).
func TestPushBatchAfterShutdown(t *testing.T) {
	comp, ds, st := fixture(t)
	m, err := NewManager(context.Background(), comp, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PushBatch(1, nil); err != nil {
		t.Fatalf("empty batch on open manager: %v", err)
	}
	if m.Active() != 0 {
		t.Fatal("empty batch opened a session")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PushBatch(1, obsStream(ds.Truth[0])); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("PushBatch after shutdown: %v, want ErrManagerClosed", err)
	}
	if _, err := m.PushBatch(1, nil); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("empty PushBatch after shutdown: %v, want ErrManagerClosed", err)
	}
}

// BenchmarkPushBatch measures the batched session hot path the binary wire
// protocol rides: one lock acquisition per batch, no per-point closures.
// Each iteration is one full trip (batch push + flush), so the codec's
// strictly-increasing-time contract holds at any N; ns/point amortizes the
// end-of-trip FST encode the way a live feed pays it.
func BenchmarkPushBatch(b *testing.B) {
	opt := gen.Default(8)
	opt.City.Rows, opt.City.Cols = 6, 6
	ds, err := gen.Generate(opt)
	if err != nil {
		b.Fatal(err)
	}
	tab := spindex.NewTable(ds.Graph)
	corpus := make([]traj.Path, 0, 8)
	for _, p := range ds.Trips[:8] {
		corpus = append(corpus, core.SPCompress(tab, p))
	}
	cb, err := core.Train(corpus, core.TrainOptions{NumEdges: ds.Graph.NumEdges(), Theta: 3})
	if err != nil {
		b.Fatal(err)
	}
	comp, err := core.NewCompressor(ds.Graph, tab, cb, 50, 30)
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.CreateSharded(b.TempDir()+"/fleet", 4)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	m, err := NewManager(context.Background(), comp, st, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	obs := obsStream(ds.Truth[0])
	points := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i % 64)
		n, err := m.PushBatch(id, obs)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Flush(id); err != nil {
			b.Fatal(err)
		}
		points += n
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(points), "ns/point")
}

// trajEvents flattens a trajectory into its replay-ordered event stream so
// tests can cut it at an arbitrary point.
type trajEvent struct {
	isEdge bool
	edge   roadnet.EdgeID
	p      traj.Entry
}

func trajEvents(t *testing.T, tr *traj.Trajectory) []trajEvent {
	t.Helper()
	var evs []trajEvent
	err := tr.Replay(
		func(e roadnet.EdgeID) error {
			evs = append(evs, trajEvent{isEdge: true, edge: e})
			return nil
		},
		func(p traj.Entry) error {
			evs = append(evs, trajEvent{p: p})
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// Checkpoint must flush every acknowledged point to the sink — each
// checkpointed record byte-identical to an online compression of the same
// prefix — while leaving the manager open: vehicles keep pushing afterwards
// and their next segment flushes normally, exactly the session-cap cut
// semantics.
func TestCheckpointNoAcknowledgedPointLoss(t *testing.T) {
	comp, ds, st := fixture(t)
	m, err := NewManager(context.Background(), comp, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Three whole trips plus one vehicle cut mid-trip at the checkpoint.
	for i := 0; i < 3; i++ {
		feed(t, m, uint64(i), ds.Truth[i])
	}
	const cutID = 3
	evs := trajEvents(t, ds.Truth[cutID])
	if len(evs) < 4 {
		t.Fatalf("trajectory too short to cut: %d events", len(evs))
	}
	half := len(evs) / 2
	push := func(e trajEvent) {
		var err error
		if e.isEdge {
			err = m.PushEdge(cutID, e.edge)
		} else {
			err = m.PushSample(cutID, e.p)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range evs[:half] {
		push(e)
	}

	n, err := m.Checkpoint(context.Background())
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if n != 4 {
		t.Fatalf("Checkpoint ended %d sessions, want 4", n)
	}
	if m.Active() != 0 {
		t.Fatalf("%d sessions still open after checkpoint", m.Active())
	}

	// Whole trips match their batch compression; the cut vehicle's record
	// matches an online compressor fed exactly the acknowledged prefix.
	for i := 0; i < 3; i++ {
		want, err := comp.Compress(ds.Truth[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Get(uint64(i))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("vehicle %d: checkpointed bytes differ from batch", i)
		}
	}
	segment := func(part []trajEvent) *core.Compressed {
		oc, err := core.NewOnlineCompressor(comp)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range part {
			if e.isEdge {
				oc.PushEdge(e.edge)
			} else {
				oc.PushSample(e.p)
			}
		}
		ct, err := oc.Flush()
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	got, err := st.Get(cutID)
	if err != nil {
		t.Fatalf("get cut vehicle: %v", err)
	}
	if !bytes.Equal(got.Marshal(), segment(evs[:half]).Marshal()) {
		t.Fatal("checkpointed prefix segment differs from online compression of the acknowledged points")
	}

	// The manager stays open: the cut vehicle resumes, its suffix becomes
	// the next stored segment, and the prefix record remains durable below
	// it (two live rows for the id).
	for _, e := range evs[half:] {
		push(e)
	}
	if err := m.Flush(cutID); err != nil {
		t.Fatal(err)
	}
	got, err = st.Get(cutID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), segment(evs[half:]).Marshal()) {
		t.Fatal("post-checkpoint segment differs from online compression of the suffix")
	}
	if got := m.Flushed(); got != 5 {
		t.Fatalf("Flushed() = %d, want 5 (4 checkpointed + 1 resumed)", got)
	}
}

// An expired context stops a checkpoint without discarding anything: the
// remaining sessions stay open and flush intact on the next attempt.
func TestCheckpointDeadlineLeavesSessionsOpen(t *testing.T) {
	comp, ds, st := fixture(t)
	m, err := NewManager(context.Background(), comp, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 4; i++ {
		feed(t, m, uint64(i), ds.Truth[i])
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := m.Checkpoint(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Checkpoint with cancelled ctx: n=%d err=%v", n, err)
	}
	if n != 0 {
		t.Fatalf("cancelled checkpoint ended %d sessions", n)
	}
	if m.Active() != 4 {
		t.Fatalf("Active() = %d after aborted checkpoint, want 4", m.Active())
	}
	n, err = m.Checkpoint(context.Background())
	if err != nil || n != 4 {
		t.Fatalf("retry checkpoint: n=%d err=%v", n, err)
	}
	for i := 0; i < 4; i++ {
		want, err := comp.Compress(ds.Truth[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Get(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("vehicle %d lost points across the aborted checkpoint", i)
		}
	}
	if _, err := m.Checkpoint(context.Background()); err != nil {
		t.Fatalf("empty checkpoint: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Checkpoint(context.Background()); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("Checkpoint after Close = %v, want ErrManagerClosed", err)
	}
}

// openSP wraps an SP and counts the searches open on it: From adds one,
// Close takes one away. opened counts every From, so a test can tell that
// searches were used at all.
type openSP struct {
	spindex.SP
	open, opened atomic.Int64
}

func (o *openSP) From(src roadnet.EdgeID) spindex.Search {
	o.open.Add(1)
	o.opened.Add(1)
	return openSearch{o.SP.From(src), o}
}

type openSearch struct {
	spindex.Search
	sp *openSP
}

func (s openSearch) Close() {
	s.Search.Close()
	s.sp.open.Add(-1)
}

// pushObs feeds one observation through the per-point methods: PushEdge
// for an edge, Push with NoEdge for a sample.
func pushObs(m *Manager, id uint64, o Obs) error {
	if !o.HasSample {
		return m.PushEdge(id, o.Edge)
	}
	return m.Push(id, roadnet.NoEdge, o.Sample)
}

// No session holds a search between pushes: after every PushBatch, Push,
// forced cap flush and Flush returns, no search is open. Parking changes no
// output: a trip pushed in random chunk sizes, one point at a time, or as
// one batch stores the same record bytes as batch compression.
func TestSessionsHoldNoSearch(t *testing.T) {
	base, ds, st := fixture(t)
	sp := &openSP{SP: spindex.NewHier(base.Graph)}
	comp, err := core.NewCompressor(base.Graph, sp, base.CB, 50, 30)
	if err != nil {
		t.Fatal(err)
	}
	idle := func(when string) {
		t.Helper()
		if n := sp.open.Load(); n != 0 {
			t.Fatalf("%d searches open after %s", n, when)
		}
	}
	m, err := NewManager(context.Background(), comp, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rng := rand.New(rand.NewSource(5))
	for i, tr := range ds.Truth {
		chunkID, oneID, pointID := uint64(3*i), uint64(3*i+1), uint64(3*i+2)
		obs := obsStream(tr)
		for rest := obs; len(rest) > 0; {
			k := 1 + rng.Intn(min(len(rest), 12))
			if _, err := m.PushBatch(chunkID, rest[:k]); err != nil {
				t.Fatal(err)
			}
			idle("PushBatch")
			rest = rest[k:]
		}
		if _, err := m.PushBatch(oneID, obs); err != nil {
			t.Fatal(err)
		}
		idle("PushBatch")
		for _, o := range obs {
			if err := pushObs(m, pointID, o); err != nil {
				t.Fatal(err)
			}
			idle("Push")
		}
		want, err := comp.Compress(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []uint64{chunkID, oneID, pointID} {
			if err := m.Flush(id); err != nil {
				t.Fatal(err)
			}
			idle("Flush")
			got, err := st.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Marshal(), want.Marshal()) {
				t.Fatalf("trajectory %d, vehicle %d: record differs from batch", i, id)
			}
		}
	}

	// Forced cap flushes, on the batched and the per-point path.
	strict, err := core.NewCompressor(base.Graph, sp, base.CB, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := NewManager(context.Background(), strict, st, Options{MaxSessionBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer capped.Close()
	tr := ds.Truth[0]
	for _, cand := range ds.Truth {
		if len(cand.Path) > len(tr.Path) {
			tr = cand
		}
	}
	breaches := 0
	for rest := obsStream(tr); len(rest) > 0; {
		k := 1 + rng.Intn(min(len(rest), 40))
		n, err := capped.PushBatch(1000, rest[:k])
		idle("PushBatch")
		if errors.Is(err, ErrSessionTooLarge) {
			breaches++
		} else if err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	for _, o := range obsStream(tr) {
		err := pushObs(capped, 1001, o)
		idle("Push")
		if errors.Is(err, ErrSessionTooLarge) {
			breaches++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if breaches < 2 {
		t.Fatalf("%d cap breaches, want one on each path at least", breaches)
	}
	if err := capped.FlushAll(); err != nil {
		t.Fatal(err)
	}
	idle("FlushAll")
	if sp.opened.Load() == 0 {
		t.Fatal("no search was ever opened")
	}
}

// badSamples pairs a valid sample prefix with the tuple that breaks it and
// a valid tuple to continue with.
var badSamples = []struct {
	name        string
	valid       []traj.Entry
	bad, resume traj.Entry
}{
	{"repeats the anchor", []traj.Entry{{D: 0, T: 5}}, traj.Entry{D: 0, T: 5}, traj.Entry{D: 1, T: 6}},
	{"time goes backward", []traj.Entry{{D: 0, T: 0}, {D: 10, T: 5}}, traj.Entry{D: 20, T: 4}, traj.Entry{D: 20, T: 6}},
	{"distance decreases", []traj.Entry{{D: 0, T: 0}, {D: 10, T: 5}}, traj.Entry{D: 5, T: 10}, traj.Entry{D: 15, T: 10}},
	{"NaN distance", []traj.Entry{{D: 0, T: 0}}, traj.Entry{D: math.NaN(), T: 5}, traj.Entry{D: 10, T: 5}},
	{"infinite time", []traj.Entry{{D: 0, T: 0}}, traj.Entry{D: 10, T: math.Inf(1)}, traj.Entry{D: 10, T: 5}},
}

// withDeadline fails t when fn has not returned within a generous bound —
// the failure modes under test are an endless loop and a session lock never
// released, not slowness. fn runs on its own goroutine, so it reports
// failures with t.Errorf and returns instead of calling t.Fatal.
func withDeadline(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("did not return: endless loop or a session lock never released")
	}
}

// A malformed observation — through PushSample, Push, PushEdge or
// PushBatch — returns ErrBadObservation and changes nothing: the vehicle's
// next valid push succeeds, and Flush and Shutdown return.
func TestBadObservationRejected(t *testing.T) {
	comp, ds, st := fixture(t)
	n := roadnet.EdgeID(comp.Graph.NumEdges())
	path := ds.Truth[0].Path
	m, err := NewManager(context.Background(), comp, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	withDeadline(t, func() {
		id := uint64(100)
		for _, tc := range badSamples {
			for via := 0; via < 3; via++ {
				id++
				if err := m.PushEdge(id, path[0]); err != nil {
					t.Errorf("%s: valid edge refused: %v", tc.name, err)
					return
				}
				for _, p := range tc.valid {
					if err := m.PushSample(id, p); err != nil {
						t.Errorf("%s: valid sample refused: %v", tc.name, err)
						return
					}
				}
				var err error
				switch via {
				case 0:
					err = m.PushSample(id, tc.bad)
				case 1:
					err = m.Push(id, path[1], tc.bad)
				default:
					batch := []Obs{{Edge: path[1]}, {Edge: roadnet.NoEdge, Sample: tc.bad, HasSample: true}, {Edge: path[2]}}
					var applied int
					if applied, err = m.PushBatch(id, batch); applied != 1 {
						t.Errorf("%s: PushBatch applied %d, want 1", tc.name, applied)
						return
					}
				}
				if !errors.Is(err, ErrBadObservation) {
					t.Errorf("%s (via %d): got %v, want ErrBadObservation", tc.name, via, err)
					return
				}
				if err := m.Push(id, roadnet.NoEdge, tc.resume); err != nil {
					t.Errorf("%s (via %d): next valid push: %v", tc.name, via, err)
					return
				}
				if err := m.Flush(id); err != nil {
					t.Errorf("%s (via %d): Flush: %v", tc.name, via, err)
					return
				}
			}
		}
		id++
		for _, e := range []roadnet.EdgeID{n, n + 3, -9} {
			if err := m.PushEdge(id, e); !errors.Is(err, ErrBadObservation) {
				t.Errorf("PushEdge(%d) of %d edges: got %v, want ErrBadObservation", e, n, err)
				return
			}
			// Refused whole: the sample of a combined observation stays
			// out, so the valid push below is no repeat of it.
			if err := m.Push(id, e, traj.Entry{D: 0, T: 1}); !errors.Is(err, ErrBadObservation) {
				t.Errorf("Push(%d) of %d edges: got %v, want ErrBadObservation", e, n, err)
				return
			}
			if _, err := m.PushBatch(id, []Obs{{Edge: e}}); !errors.Is(err, ErrBadObservation) {
				t.Errorf("PushBatch(%d) of %d edges: got %v, want ErrBadObservation", e, n, err)
				return
			}
		}
		// NoEdge means "no edge" on Push and PushBatch, but PushEdge has no
		// such reading: there it is an edge outside the network.
		if err := m.PushEdge(id, roadnet.NoEdge); !errors.Is(err, ErrBadObservation) {
			t.Errorf("PushEdge(NoEdge): got %v, want ErrBadObservation", err)
			return
		}
		// Every other session was flushed, and refused pushes alone leave
		// no session behind.
		if n := m.Active(); n != 0 {
			t.Errorf("%d sessions open after only refused pushes, want 0", n)
			return
		}
		if err := m.Push(id, path[0], traj.Entry{D: 0, T: 1}); err != nil {
			t.Errorf("next valid push after refused edges: %v", err)
			return
		}
		if err := m.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
}
