package pipeline

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"press/internal/core"
	"press/internal/gen"
	"press/internal/mapmatch"
	"press/internal/spindex"
	"press/internal/store"
	"press/internal/traj"
)

// fixture assembles the pipeline components over a small synthetic city.
func fixture(t *testing.T) (*mapmatch.Matcher, *core.Compressor, *gen.Dataset) {
	t.Helper()
	opt := gen.Default(24)
	opt.City.Rows, opt.City.Cols = 7, 7
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
	m, err := mapmatch.New(ds.Graph, tab, mapmatch.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m, comp, ds
}

func TestNewValidation(t *testing.T) {
	m, comp, _ := fixture(t)
	ctx := context.Background()
	if _, err := New(ctx, nil, comp, Options{}); err == nil {
		t.Error("nil matcher accepted")
	}
	if _, err := New(ctx, m, nil, Options{}); err == nil {
		t.Error("nil compressor accepted")
	}
	if _, err := New(ctx, m, comp, Options{MinWorkers: 4, MaxWorkers: 2}); err == nil {
		t.Error("MinWorkers > MaxWorkers accepted")
	}
}

// The parallel pipeline must emit results in submission order and each
// compressed output must be byte-identical to the serial pipeline.
func TestRunMatchesSerialByteIdentical(t *testing.T) {
	m, comp, ds := fixture(t)
	for _, workers := range []int{1, 2, 4, 8} {
		results, err := Run(m, comp, ds.Raws, Options{Workers: workers, Buffer: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(ds.Raws) {
			t.Fatalf("workers=%d: got %d results for %d inputs", workers, len(results), len(ds.Raws))
		}
		for i, res := range results {
			if res.Seq != i {
				t.Fatalf("workers=%d: result %d has Seq %d (order broken)", workers, i, res.Seq)
			}
			tr, err := m.MatchAndReformat(ds.Raws[i])
			if err != nil {
				if res.Err == nil {
					t.Fatalf("workers=%d item %d: serial failed (%v) but pipeline succeeded", workers, i, err)
				}
				continue
			}
			want, err := comp.Compress(tr)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatalf("workers=%d item %d: %v", workers, i, res.Err)
			}
			if !reflect.DeepEqual(res.Compressed.Marshal(), want.Marshal()) {
				t.Fatalf("workers=%d item %d: bytes differ from serial", workers, i)
			}
		}
	}
}

// A failing item reports its error at its own sequence number without
// disturbing the rest of the stream.
func TestPerItemFailure(t *testing.T) {
	m, comp, ds := fixture(t)
	raws := append([]traj.Raw{}, ds.Raws[:8]...)
	raws[3] = traj.Raw{} // unmatchable: empty trajectory
	results, err := Run(m, comp, raws, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if i == 3 {
			if res.Err == nil || res.Compressed != nil {
				t.Fatalf("item 3 should have failed, got %+v", res)
			}
			continue
		}
		if res.Err != nil {
			t.Fatalf("item %d: %v", i, res.Err)
		}
	}
}

// Streaming use: a tiny buffer forces backpressure through every stage while
// a deliberately lagging consumer drains; everything must still come out
// complete and ordered.
func TestStreamingBackpressure(t *testing.T) {
	m, comp, ds := fixture(t)
	ctx := context.Background()
	p, err := New(ctx, m, comp, Options{Workers: 4, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, raw := range ds.Raws {
			if _, err := p.Submit(ctx, raw); err != nil {
				t.Error(err)
				break
			}
		}
		p.Close()
	}()
	next := 0
	for res := range p.Results() {
		if res.Seq != next {
			t.Fatalf("out of order: got %d want %d", res.Seq, next)
		}
		next++
		if next%4 == 0 {
			// Lag the consumer: recompress one item inline so the input side
			// races ahead and the bounded channels must absorb it.
			if res.Err == nil {
				_, _ = comp.Compress(res.Traj)
			}
		}
	}
	if next != len(ds.Raws) {
		t.Fatalf("drained %d of %d", next, len(ds.Raws))
	}
}

// The in-flight window must bound memory even when the consumer is absent:
// an unconsumed pipeline lets only ~workers+2*buffer items through Submit,
// instead of buffering the whole stream in the reorder stage.
func TestSubmitBlocksWithoutConsumer(t *testing.T) {
	m, comp, ds := fixture(t)
	ctx := context.Background()
	p, err := New(ctx, m, comp, Options{Workers: 2, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	const total = 50
	var submitted atomic.Int64
	go func() {
		for i := 0; i < total; i++ {
			if _, err := p.Submit(ctx, ds.Raws[i%len(ds.Raws)]); err != nil {
				t.Error(err)
				break
			}
			submitted.Add(1)
		}
		p.Close()
	}()
	// With nobody draining Results, the producer must stall at a small
	// bounded count (window + the few slots recycled into the out buffer).
	var last int64 = -1
	for settle := 0; settle < 3; {
		time.Sleep(100 * time.Millisecond)
		if n := submitted.Load(); n == last {
			settle++
		} else {
			last, settle = n, 0
		}
	}
	if last >= total {
		t.Fatalf("producer never blocked: %d submitted with no consumer", last)
	}
	if last > 12 {
		t.Errorf("in-flight bound too loose: %d items submitted with no consumer", last)
	}
	// Draining releases the window; everything still arrives, in order.
	next := 0
	for res := range p.Results() {
		if res.Seq != next {
			t.Fatalf("out of order: got %d want %d", res.Seq, next)
		}
		next++
	}
	if next != total {
		t.Fatalf("drained %d of %d", next, total)
	}
}

func TestSubmitAfterCloseReturnsErrClosed(t *testing.T) {
	m, comp, ds := fixture(t)
	ctx := context.Background()
	p, err := New(ctx, m, comp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if _, err := p.Submit(ctx, ds.Raws[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := p.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown after full drain: %v", err)
	}
	if _, err := p.Submit(ctx, ds.Raws[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Shutdown = %v, want ErrClosed", err)
	}
}

// Shutdown with an unexpired context is the graceful drain: every accepted
// item must come out, in order, and Shutdown must return nil.
func TestShutdownDrainLosesNothing(t *testing.T) {
	m, comp, ds := fixture(t)
	ctx := context.Background()
	p, err := New(ctx, m, comp, Options{Workers: 4, Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	got := make(chan int, 1)
	go func() {
		count := 0
		for res := range p.Results() {
			if res.Seq != count {
				t.Errorf("out of order: got %d want %d", res.Seq, count)
			}
			count++
		}
		got <- count
	}()
	for i := 0; i < n; i++ {
		if _, err := p.Submit(ctx, ds.Raws[i%len(ds.Raws)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if count := <-got; count != n {
		t.Fatalf("drained %d of %d accepted items", count, n)
	}
}

// Shutdown with an already-expired context must discard queued work and
// return promptly even when nobody consumes Results.
func TestShutdownDiscardReturnsPromptly(t *testing.T) {
	m, comp, ds := fixture(t)
	p, err := New(context.Background(), m, comp, Options{Workers: 1, Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate: nobody drains Results, so most of these sit queued.
	submitCtx, cancelSubmit := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancelSubmit()
	for i := 0; i < 8; i++ {
		if _, err := p.Submit(submitCtx, ds.Raws[i%len(ds.Raws)]); err != nil {
			break // saturated; that is the point
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() { done <- p.Shutdown(cancelled) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Shutdown = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("discard-mode Shutdown did not return promptly")
	}
	// Results must be closed (promptly) after a discard shutdown.
	select {
	case _, ok := <-p.Results():
		for ok {
			_, ok = <-p.Results()
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Results did not close after discard shutdown")
	}
}

// Cancelling the lifetime context passed to New unblocks a saturated
// producer with the cancellation cause and closes Results.
func TestLifetimeContextCancelUnblocksSubmit(t *testing.T) {
	m, comp, ds := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	p, err := New(ctx, m, comp, Options{Workers: 1, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			if _, err := p.Submit(context.Background(), ds.Raws[i%len(ds.Raws)]); err != nil {
				errc <- err
				return
			}
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the producer saturate and block
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Submit unblocked with %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked Submit did not observe cancellation")
	}
	for range p.Results() {
	}
	p.Close() // post-cancel Close must stay safe
}

// The per-call Submit context bounds the backpressure wait without killing
// the pipeline.
func TestSubmitContextTimeout(t *testing.T) {
	m, comp, ds := fixture(t)
	p, err := New(context.Background(), m, comp, Options{Workers: 1, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	timedOut := false
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := p.Submit(ctx, ds.Raws[0])
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			timedOut = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !timedOut {
		t.Fatal("saturated Submit never honored its context deadline")
	}
	// The pipeline itself is still healthy: drain everything accepted.
	go p.Close()
	for res := range p.Results() {
		_ = res
	}
}

// The adaptive pool must grow toward MaxWorkers while the queue stays deep
// and shrink back to MinWorkers when the feed goes quiet — with no goroutine
// left behind after shutdown.
func TestAdaptiveWorkerPool(t *testing.T) {
	m, comp, ds := fixture(t)
	before := runtime.NumGoroutine()
	ctx := context.Background()
	p, err := New(ctx, m, comp, Options{
		MinWorkers: 1, MaxWorkers: 4, Buffer: 4, IdleRetire: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Workers(); got != 1 {
		t.Fatalf("initial pool %d, want MinWorkers=1", got)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for res := range p.Results() {
			_ = res
		}
	}()
	grew := 0
	for i := 0; i < 120; i++ {
		if _, err := p.Submit(ctx, ds.Raws[i%len(ds.Raws)]); err != nil {
			t.Fatal(err)
		}
		if w := p.Workers(); w > grew {
			grew = w
		}
	}
	if grew < 2 {
		t.Fatalf("pool never grew above %d under sustained load", grew)
	}
	if grew > 4 {
		t.Fatalf("pool exceeded MaxWorkers: %d", grew)
	}
	// Quiet feed: surplus workers must retire back to the floor.
	shrunk := false
	for wait := time.Now().Add(30 * time.Second); time.Now().Before(wait); {
		if p.Workers() == 1 {
			shrunk = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !shrunk {
		t.Fatalf("pool stuck at %d workers after the feed went quiet", p.Workers())
	}
	if err := p.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	<-done
	// All pipeline goroutines must unwind (allow scheduler noise).
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// RunContext cancellation: partial results come back with the cancellation
// cause on unprocessed items, and nothing hangs.
func TestRunContextCancel(t *testing.T) {
	m, comp, ds := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunContext(ctx, m, comp, ds.Raws, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if len(results) != len(ds.Raws) {
		t.Fatalf("got %d results for %d inputs", len(results), len(ds.Raws))
	}
	for i, res := range results {
		if res.Err == nil && res.Compressed == nil {
			t.Fatalf("item %d: neither result nor error after cancellation", i)
		}
	}
}

// RunToShardedStore drains the pipeline with concurrent tails; every
// successful item must land in the store under its submission index, byte
// identical, with failures reported per item — at any tail count.
func TestRunToShardedStore(t *testing.T) {
	m, comp, ds := fixture(t)
	raws := append([]traj.Raw{}, ds.Raws[:12]...)
	raws[5] = traj.Raw{} // injected failure
	for _, tails := range []int{1, 2, 4, 8} {
		st, err := store.CreateSharded(t.TempDir()+"/fleet", 4)
		if err != nil {
			t.Fatal(err)
		}
		results, err := RunToShardedStore(m, comp, st, raws, Options{Workers: 4}, tails)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(raws) {
			t.Fatalf("tails=%d: %d results", tails, len(results))
		}
		stored := 0
		for i, res := range results {
			if res.Seq != i {
				t.Fatalf("tails=%d: results out of submission order at %d", tails, i)
			}
			if i == 5 {
				if res.Err == nil {
					t.Fatalf("tails=%d: injected failure succeeded", tails)
				}
				if _, err := st.Get(uint64(i)); err == nil {
					t.Fatalf("tails=%d: failed item was stored", tails)
				}
				continue
			}
			if res.Err != nil {
				t.Fatalf("tails=%d item %d: %v", tails, i, res.Err)
			}
			got, err := st.Get(uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Marshal(), res.Compressed.Marshal()) {
				t.Fatalf("tails=%d item %d: stored bytes differ", tails, i)
			}
			stored++
		}
		if st.Len() != stored {
			t.Fatalf("tails=%d: store has %d records want %d", tails, st.Len(), stored)
		}
		st.Close()
	}
}

// A sink failure is a per-item error, not a batch abort.
type failingSink struct{}

func (failingSink) Append(id uint64, _ *core.Compressed) error {
	if id%3 == 0 {
		return errClosedSink
	}
	return nil
}

var errClosedSink = errors.New("sink full")

func TestRunToShardedStoreSinkErrors(t *testing.T) {
	m, comp, ds := fixture(t)
	results, err := RunToShardedStore(m, comp, failingSink{}, ds.Raws[:9], Options{Workers: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if i%3 == 0 {
			if !errors.Is(res.Err, errClosedSink) || res.Compressed != nil {
				t.Fatalf("item %d: Err=%v Compressed=%v (append failure not recorded)", i, res.Err, res.Compressed)
			}
		} else if res.Err != nil {
			t.Fatalf("item %d: %v", i, res.Err)
		}
	}
	if _, err := RunToShardedStore(m, comp, nil, ds.Raws[:1], Options{}, 1); err == nil {
		t.Error("nil sink accepted")
	}
}

// RunToShardedStoreContext cancellation: every item comes back either
// stored or failed with the cause and absent from the store, and nothing
// hangs.
func TestRunToStore(t *testing.T) {
	m, comp, ds := fixture(t)
	st, err := store.CreateSharded(t.TempDir()+"/fleet", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunToShardedStoreContext(ctx, m, comp, st, ds.Raws, Options{Workers: 2}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunToShardedStoreContext = %v, want context.Canceled", err)
	}
	if len(results) != len(ds.Raws) {
		t.Fatalf("got %d results for %d inputs", len(results), len(ds.Raws))
	}
	stored := 0
	for i, res := range results {
		_, getErr := st.Get(uint64(i))
		switch {
		case res.Err == nil && getErr == nil:
			stored++
		case res.Err != nil && errors.Is(getErr, store.ErrNotFound):
		default:
			t.Fatalf("item %d: Err=%v, store Get err=%v", i, res.Err, getErr)
		}
	}
	if st.Len() != stored {
		t.Fatalf("store has %d records want %d", st.Len(), stored)
	}
}

// After a complete drain the pipeline's derived context is released; a
// late Submit must still surface the public ErrClosed, never the internal
// completion sentinel.
func TestSubmitAfterDrainReturnsErrClosed(t *testing.T) {
	m, comp, ds := fixture(t)
	ctx := context.Background()
	p, err := New(ctx, m, comp, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, raw := range ds.Raws[:6] {
			if _, err := p.Submit(ctx, raw); err != nil {
				t.Error(err)
				break
			}
		}
		p.Close()
	}()
	for range p.Results() {
	}
	if err := p.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after drain = %v, want nil", err)
	}
	if _, err := p.Submit(ctx, ds.Raws[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after drain = %v, want ErrClosed", err)
	}
}

// Submit after Close must return ErrClosed even when the pipeline is
// saturated (no free window slot) — not hang waiting for one.
func TestSubmitAfterCloseSaturated(t *testing.T) {
	m, comp, ds := fixture(t)
	ctx := context.Background()
	p, err := New(ctx, m, comp, Options{Workers: 1, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate with no consumer until Submit would block.
	for {
		sctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
		_, err := p.Submit(sctx, ds.Raws[0])
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	done := make(chan error, 1)
	go func() {
		_, err := p.Submit(ctx, ds.Raws[0])
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Submit after Close on saturated pipeline = %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Submit after Close hung on a saturated pipeline")
	}
	for range p.Results() {
	}
}
