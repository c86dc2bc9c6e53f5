// Package pipeline implements the streaming, paralleled ingest pipeline of
// PRESS (Fig. 1): raw GPS trajectories flow through map matching,
// re-formatting and HSC/BTC compression on a pool of workers, and come out
// the other end in submission order, ready to store or query.
//
// The pipeline is context-aware end to end. New takes the pipeline's
// lifetime context: cancelling it tears the pipeline down in discard mode —
// workers stop picking up queued work, Results closes promptly, and
// blocked Submits return the cancellation cause. Submit takes a per-call
// context so a producer can bound how long it is willing to wait on
// backpressure. Shutdown(ctx) is the graceful half: it stops intake and
// drains every accepted item, unless (until) ctx expires, at which point it
// degrades to discard mode. Close remains the simple "no more input, drain
// everything" signal for producers that do not need a deadline.
//
// The pipeline is built from bounded channels, so backpressure is
// intrinsic: a slow consumer fills the output buffer, which stalls the
// reorder stage, the workers and finally Submit — memory in flight is
// bounded by MaxWorkers + 2*Buffer items no matter how fast the producer
// is.
//
// The worker pool is adaptive: it starts at MinWorkers and grows toward
// MaxWorkers while the input queue stays deep, and surplus workers retire
// after sitting idle, so mixed workloads (long vs short trajectories) keep
// cores busy without pinning them when the feed goes quiet. Setting only
// Workers gives the old fixed-size pool.
//
// Failures are first-class and per-item: a trajectory that cannot be
// matched or compressed yields a Result with Err set at its own sequence
// number, and every other item is unaffected (no fail-fast). After
// cancellation, items still in flight may be dropped without a Result —
// discard mode trades the one-Result-per-Submit invariant for prompt
// termination.
//
//	p, _ := pipeline.New(ctx, matcher, compressor, pipeline.Options{MinWorkers: 1, MaxWorkers: 8})
//	go func() {
//		for _, raw := range raws {
//			if _, err := p.Submit(ctx, raw); err != nil {
//				break
//			}
//		}
//		p.Shutdown(ctx) // drain; discard the queue if ctx expires first
//	}()
//	for res := range p.Results() {
//		// res.Seq is the submission index; order is deterministic.
//	}
package pipeline

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"press/internal/core"
	"press/internal/mapmatch"
	"press/internal/traj"
)

// ErrClosed is returned by Submit after Close or Shutdown: the pipeline no
// longer accepts work. Match with errors.Is.
var ErrClosed = errors.New("pipeline: closed")

// errDone is the internal cancellation cause used to release the derived
// lifetime context once the pipeline has fully drained — without it every
// completed pipeline would stay registered as a child of the caller's
// context until that context itself is cancelled. It is never surfaced:
// cause() maps it to ErrClosed and the drain paths to nil.
var errDone = errors.New("pipeline: drained")

// cause reports why the pipeline context ended, mapping the internal
// completion sentinel to the public ErrClosed.
func (p *Pipeline) cause() error {
	err := context.Cause(p.ctx)
	if errors.Is(err, errDone) {
		return ErrClosed
	}
	return err
}

// abortCause reports whether the pipeline was aborted: nil both while it
// is live and after a normal drain (the completion sentinel).
func (p *Pipeline) abortCause() error {
	err := context.Cause(p.ctx)
	if errors.Is(err, errDone) {
		return nil
	}
	return err
}

// Options tunes a Pipeline.
type Options struct {
	// Workers is the fixed pool size (0 = GOMAXPROCS). It is ignored when
	// MaxWorkers is set.
	Workers int
	// MinWorkers and MaxWorkers enable adaptive sizing: the pool starts at
	// MinWorkers (default 1) and grows toward MaxWorkers while the input
	// queue stays deep; surplus workers retire after IdleRetire of no work.
	// MaxWorkers = 0 disables adaptation and falls back to Workers.
	MinWorkers int
	MaxWorkers int
	// IdleRetire is how long a surplus worker sits idle before retiring
	// (0 = 200ms). Only consulted when the pool is adaptive.
	IdleRetire time.Duration
	// Buffer is the capacity of the input and output channels
	// (0 = 2*MaxWorkers). Smaller buffers mean tighter backpressure, larger
	// ones smooth bursts.
	Buffer int
}

// resolve normalizes the options into (min, max, idle, buffer).
func (opt Options) resolve() (int, int, time.Duration, int, error) {
	min, max := opt.MinWorkers, opt.MaxWorkers
	if max <= 0 {
		w := opt.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		min, max = w, w
	} else {
		if min <= 0 {
			min = 1
		}
		if min > max {
			return 0, 0, 0, 0, errors.New("pipeline: MinWorkers exceeds MaxWorkers")
		}
	}
	idle := opt.IdleRetire
	if idle <= 0 {
		idle = 200 * time.Millisecond
	}
	buffer := opt.Buffer
	if buffer <= 0 {
		buffer = 2 * max
	}
	return min, max, idle, buffer, nil
}

// Result is the outcome for one submitted trajectory. Exactly one of
// Compressed and Err is non-nil.
type Result struct {
	// Seq is the submission index (0-based); results arrive in Seq order.
	Seq int
	// Raw is the input as submitted.
	Raw traj.Raw
	// Traj is the matched and re-formatted trajectory (nil if matching failed).
	Traj *traj.Trajectory
	// Compressed is the PRESS-compressed output (nil on error).
	Compressed *core.Compressed
	// Err reports this item's failure; other items are unaffected.
	Err error
}

type job struct {
	seq int
	raw traj.Raw
}

// Pipeline is a running streaming pipeline. Submit, Close and Shutdown must
// be called from one producer goroutine; Results must be consumed
// concurrently or Submit will eventually block (that is the backpressure
// working). Cancelling the context given to New may happen from anywhere.
type Pipeline struct {
	matcher *mapmatch.Matcher
	comp    *core.Compressor

	min, max int
	idle     time.Duration

	ctx    context.Context
	cancel context.CancelCauseFunc

	in        chan job
	unordered chan Result
	out       chan Result
	// window caps how many items may be in flight between Submit and the
	// out channel. Without it a single slow early item would let the
	// reorder stage accumulate every later result unboundedly. Its slot is
	// released when a result enters out (cap Buffer), so total live items
	// are bounded by cap(window)+Buffer = MaxWorkers+2*Buffer, the bound
	// the package doc promises.
	window chan struct{}

	closedCh chan struct{} // closed by Close; reorder's end-of-input signal
	drained  chan struct{} // closed by reorder after out closes

	live atomic.Int32 // current worker count

	mu     sync.Mutex
	nextIn int
	closed bool
}

// New starts the worker pool and reorder stage for a streaming pipeline.
// ctx is the pipeline's lifetime: cancelling it discards queued work and
// closes Results promptly (use Close or Shutdown for a graceful drain).
func New(ctx context.Context, m *mapmatch.Matcher, c *core.Compressor, opt Options) (*Pipeline, error) {
	if m == nil || c == nil {
		return nil, errors.New("pipeline: nil matcher or compressor")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	min, max, idle, buffer, err := opt.resolve()
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		matcher:   m,
		comp:      c,
		min:       min,
		max:       max,
		idle:      idle,
		in:        make(chan job, buffer),
		unordered: make(chan Result, buffer),
		out:       make(chan Result, buffer),
		window:    make(chan struct{}, max+buffer),
		closedCh:  make(chan struct{}),
		drained:   make(chan struct{}),
	}
	p.ctx, p.cancel = context.WithCancelCause(ctx)
	p.live.Store(int32(min))
	for w := 0; w < min; w++ {
		go p.worker()
	}
	go p.reorder()
	return p, nil
}

// Workers returns the current worker count; with an adaptive pool it moves
// between MinWorkers and MaxWorkers with the observed queue depth.
func (p *Pipeline) Workers() int { return int(p.live.Load()) }

// worker pulls jobs until the input closes, the pipeline is cancelled, or —
// in an adaptive pool above MinWorkers — it has idled for IdleRetire.
func (p *Pipeline) worker() {
	for {
		// At the pool floor retirement is impossible, so block without the
		// idle timer: a fixed-size pool (min == max) never wakes up to poll.
		// The pool-size check is racy against growth, but at worst one
		// surplus worker waits for the next job before it starts its idle
		// clock.
		if int(p.live.Load()) <= p.min {
			select {
			case <-p.ctx.Done():
				p.live.Add(-1)
				return
			case j, ok := <-p.in:
				if !ok {
					p.live.Add(-1)
					return
				}
				if !p.handle(j) {
					p.live.Add(-1)
					return
				}
			}
			continue
		}
		// Fast path: take available work without arming the idle timer.
		select {
		case j, ok := <-p.in:
			if !ok {
				p.live.Add(-1)
				return
			}
			if !p.handle(j) {
				p.live.Add(-1)
				return
			}
			continue
		default:
		}
		select {
		case <-p.ctx.Done():
			p.live.Add(-1)
			return
		case j, ok := <-p.in:
			if !ok {
				p.live.Add(-1)
				return
			}
			if !p.handle(j) {
				p.live.Add(-1)
				return
			}
		case <-time.After(p.idle):
			if p.tryRetire() {
				return
			}
		}
	}
}

// handle processes one job and forwards its result; false means the
// pipeline is cancelled and the worker should exit.
func (p *Pipeline) handle(j job) bool {
	if p.ctx.Err() != nil {
		return false // discard mode: drop the job, reorder is unwinding
	}
	r := p.process(j)
	select {
	case p.unordered <- r:
		return true
	case <-p.ctx.Done():
		return false
	}
}

// tryRetire shrinks the pool by one if it is above the floor.
func (p *Pipeline) tryRetire() bool {
	for {
		n := p.live.Load()
		if int(n) <= p.min {
			return false
		}
		if p.live.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// maybeGrow spawns a worker when the input queue is deep and the pool is
// below the ceiling. Called from Submit (the single producer), so growth
// tracks the observed queue depth at the moment work piles up.
func (p *Pipeline) maybeGrow() {
	if len(p.in) <= cap(p.in)/2 || p.ctx.Err() != nil {
		return
	}
	for {
		n := p.live.Load()
		if int(n) >= p.max {
			return
		}
		if p.live.CompareAndSwap(n, n+1) {
			go p.worker()
			return
		}
	}
}

// process runs the full per-item pipeline: match -> reformat -> compress.
// The matcher and compressor are safe for concurrent use (their shared
// shortest-path table is internally synchronized), so workers share them.
func (p *Pipeline) process(j job) Result {
	res := Result{Seq: j.seq, Raw: j.raw}
	tr, err := p.matcher.MatchAndReformat(j.raw)
	if err != nil {
		res.Err = err
		return res
	}
	res.Traj = tr
	ct, err := p.comp.Compress(tr)
	if err != nil {
		res.Err = err
		return res
	}
	res.Compressed = ct
	return res
}

// accepted returns the number of sequence numbers handed out so far; final
// once closedCh is closed.
func (p *Pipeline) accepted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nextIn
}

// reorder re-establishes submission order: workers finish out of order, but
// results are released strictly by Seq. It releases one window slot per
// result handed to the out channel; since Submit acquires a slot first, at
// most cap(window) items exist between Submit and out, which bounds the
// holding map. It exits when every accepted item has been delivered (after
// Close) or when the pipeline is cancelled, closing out and drained either
// way.
func (p *Pipeline) reorder() {
	// LIFO: out closes first, then drained, then the derived context is
	// released so it does not leak on the caller's parent context.
	defer p.cancel(errDone)
	defer close(p.drained)
	defer close(p.out)
	pending := make(map[int]Result)
	next := 0
	closedCh := p.closedCh
	closed := false
	for {
		if closed && next == p.accepted() {
			return
		}
		select {
		case r := <-p.unordered:
			pending[r.Seq] = r
			for {
				r2, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				// Prefer delivery; fall back to a cancellation-aware wait so
				// a vanished consumer cannot wedge teardown.
				select {
				case p.out <- r2:
				default:
					select {
					case p.out <- r2:
					case <-p.ctx.Done():
						return
					}
				}
				<-p.window
				next++
			}
		case <-closedCh:
			closed = true
			closedCh = nil // arm the completion check, stop re-firing
		case <-p.ctx.Done():
			return
		}
	}
}

// Submit feeds one raw trajectory into the pipeline and returns its
// sequence number. It blocks while the pipeline is saturated (backpressure)
// until ctx — or the pipeline's own context — is done. After Close or
// Shutdown it returns ErrClosed.
func (p *Pipeline) Submit(ctx context.Context, raw traj.Raw) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Closed check before the window acquire: on a saturated pipeline no
	// slot will ever free after Close, so waiting first would hang instead
	// of returning ErrClosed. (Submit and Close share one producer
	// goroutine, so the pipeline cannot close between here and the
	// acquire; the post-acquire re-check covers belt-and-braces anyway.)
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	select {
	case p.window <- struct{}{}: // in-flight cap; released when the result is emitted
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-p.ctx.Done():
		return 0, p.cause()
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.window
		return 0, ErrClosed
	}
	seq := p.nextIn
	p.nextIn++
	p.mu.Unlock()
	select {
	case p.in <- job{seq: seq, raw: raw}:
	case <-ctx.Done():
		p.unadmit()
		return 0, ctx.Err()
	case <-p.ctx.Done():
		p.unadmit()
		return 0, p.cause()
	}
	p.maybeGrow()
	return seq, nil
}

// unadmit rolls back a sequence number whose job never entered the queue.
// Submit is single-producer, so the aborted seq is always the latest one.
func (p *Pipeline) unadmit() {
	p.mu.Lock()
	p.nextIn--
	p.mu.Unlock()
	<-p.window
}

// Close signals that no more trajectories will be submitted. The Results
// channel closes once every in-flight item has drained. Close is
// idempotent and never discards accepted work; use Shutdown to bound the
// drain with a deadline.
func (p *Pipeline) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	close(p.in)
	close(p.closedCh)
}

// Shutdown stops intake and waits for every accepted item to drain through
// Results (the consumer must keep consuming). If ctx is done first, the
// pipeline switches to discard mode: queued items are dropped, Results
// closes promptly, and ctx's error is returned. A nil error means a
// complete drain.
func (p *Pipeline) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	p.Close()
	// Prefer the drained signal when it is already up, so a deadline that
	// expires at the same instant the last result lands still reports the
	// successful drain instead of racing into discard mode.
	select {
	case <-p.drained:
		return nil
	default:
	}
	select {
	case <-p.drained:
		return nil
	case <-p.ctx.Done():
		<-p.drained
		return p.abortCause()
	case <-ctx.Done():
		p.cancel(ctx.Err())
		<-p.drained
		return ctx.Err()
	}
}

// Results returns the ordered output channel. It yields one Result per
// Submit, in submission order, and closes after Close/Shutdown once all
// work drains — or promptly, dropping undelivered items, on cancellation.
func (p *Pipeline) Results() <-chan Result {
	return p.out
}

// IDSink consumes compressed trajectories keyed by trajectory id and is
// safe for concurrent Appends; store.ShardedStore satisfies it. Placement
// is a pure function of the id, so any number of tails can append at once.
type IDSink interface {
	Append(id uint64, ct *core.Compressed) error
}

// Run pushes a whole batch through a fresh pipeline and returns one Result
// per input, in input order. Per-item failures are reported in the Results;
// they never abort the batch.
func Run(m *mapmatch.Matcher, c *core.Compressor, raws []traj.Raw, opt Options) ([]Result, error) {
	return RunContext(context.Background(), m, c, raws, opt)
}

// RunContext is Run bound to a context: cancellation stops the batch early,
// marks every unprocessed item's Result with the cancellation cause and
// returns it as the error alongside the partial results.
func RunContext(ctx context.Context, m *mapmatch.Matcher, c *core.Compressor, raws []traj.Raw, opt Options) ([]Result, error) {
	p, err := New(ctx, m, c, opt)
	if err != nil {
		return nil, err
	}
	go func() {
		for _, raw := range raws {
			if _, err := p.Submit(ctx, raw); err != nil {
				break
			}
		}
		p.Close()
	}()
	out := make([]Result, len(raws))
	delivered := make([]bool, len(raws))
	for res := range p.Results() {
		out[res.Seq] = res
		delivered[res.Seq] = true
	}
	if err := p.abortCause(); err != nil {
		for i := range out {
			if !delivered[i] {
				out[i] = Result{Seq: i, Raw: raws[i], Err: err}
			}
		}
		return out, err
	}
	return out, nil
}

// RunToShardedStore is Run with a concurrent storage tail: up to `tails`
// goroutines (0 = MaxWorkers) drain the pipeline together and append each
// successfully compressed trajectory to the sink keyed by its submission
// index — so with a sharded sink, appends to different shards proceed in
// parallel instead of funneling through one writer. Results are still
// returned in submission order; an item whose append fails has the sink's
// error recorded in its Err (and Compressed cleared), like any other
// per-item failure.
func RunToShardedStore(m *mapmatch.Matcher, c *core.Compressor, sink IDSink, raws []traj.Raw, opt Options, tails int) ([]Result, error) {
	return RunToShardedStoreContext(context.Background(), m, c, sink, raws, opt, tails)
}

// RunToShardedStoreContext is RunToShardedStore bound to a context;
// cancellation semantics match RunContext.
func RunToShardedStoreContext(ctx context.Context, m *mapmatch.Matcher, c *core.Compressor, sink IDSink, raws []traj.Raw, opt Options, tails int) ([]Result, error) {
	if sink == nil {
		return nil, errors.New("pipeline: nil sink")
	}
	p, err := New(ctx, m, c, opt)
	if err != nil {
		return nil, err
	}
	if tails <= 0 {
		tails = p.max
	}
	go func() {
		for _, raw := range raws {
			if _, err := p.Submit(ctx, raw); err != nil {
				break
			}
		}
		p.Close()
	}()
	out := make([]Result, len(raws))
	delivered := make([]bool, len(raws))
	var wg sync.WaitGroup
	for t := 0; t < tails; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for res := range p.Results() {
				if res.Err == nil {
					if err := sink.Append(uint64(res.Seq), res.Compressed); err != nil {
						res.Err = err
						res.Compressed = nil
					}
				}
				out[res.Seq] = res // each Seq is owned by exactly one tail
				delivered[res.Seq] = true
			}
		}()
	}
	wg.Wait()
	if err := p.abortCause(); err != nil {
		for i := range out {
			if !delivered[i] {
				out[i] = Result{Seq: i, Raw: raws[i], Err: err}
			}
		}
		return out, err
	}
	return out, nil
}
