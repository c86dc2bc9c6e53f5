// Package stream is the per-vehicle session layer over the online codec:
// the piece that turns PRESS from a batch compressor into a serving system
// for live feeds (§7.2's online adaptation, made operational).
//
// A Manager keys live sessions by trajectory id. Each session owns one
// core.OnlineCompressor, so a vehicle's edges and (d, t) samples are
// compressed the moment their windows close, with memory proportional to
// the retained (compressed) elements only; every push parks the compressor
// before it releases the session (core.OnlineCompressor.Park), so an idle
// session holds no shortest-path search scratch. Flushing a session —
// explicitly (Flush, end of trip), in bulk (FlushAll), or automatically
// after IdleFlush without a push (a vehicle that went dark) — FST-encodes
// the retained path and appends the finished record to the Sink keyed by
// the session id; a store.ShardedStore makes that append safe and parallel
// across vehicles.
//
// Cancellation follows the pipeline's semantics: the context given to
// NewManager is the manager's lifetime — cancelling it discards open
// sessions and unblocks nothing-in-particular (pushes are cheap and never
// block); Shutdown(ctx) is the graceful half, flushing every open session
// unless ctx expires first, at which point the remainder is discarded.
// Everything already appended to the sink stays readable either way.
//
// All methods are safe for concurrent use; pushes for different vehicles
// proceed in parallel and only contend on the (sharded) sink at flush
// time.
package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"press/internal/core"
	"press/internal/roadnet"
	"press/internal/traj"
)

// ErrManagerClosed is returned by pushes and flushes after Shutdown; match
// with errors.Is. After an external lifetime-context cancellation, pushes
// return the cancellation cause instead (context.Canceled or a custom
// cause) — the same convention the pipeline uses.
var ErrManagerClosed = errors.New("stream: manager closed")

// ErrSessionTooLarge is returned by a push that drove a session past
// Options.MaxSessionBytes. The push itself was accepted: the session is
// force-flushed to the sink *including* the offending point, so no data is
// lost — the error tells the caller the trajectory was cut at this point
// and the vehicle's next push starts a fresh session. Match with errors.Is
// (a failing force-flush joins its error to this one).
var ErrSessionTooLarge = errors.New("stream: session exceeds memory cap")

// ErrBadObservation is returned by a push whose observation the session's
// compressor refused (see core.OnlineCompressor.Push): an edge outside the
// network, a non-finite d or t, a t not after the vehicle's last accepted
// t, or a d below its last accepted d. The refused observation changes
// nothing: the session keeps every point accepted before it, and the
// vehicle's next valid push continues the same trajectory. Match with
// errors.Is.
var ErrBadObservation = errors.New("stream: bad observation")

// Sink receives finished session records keyed by trajectory id;
// store.ShardedStore satisfies it.
type Sink interface {
	Append(id uint64, ct *core.Compressed) error
}

// Options tunes a Manager.
type Options struct {
	// IdleFlush auto-flushes a session once it has gone this long without a
	// push (0 = no auto-flush; sessions end only via Flush/FlushAll/
	// Shutdown).
	IdleFlush time.Duration
	// SweepEvery is how often the idle sweeper scans open sessions
	// (0 = IdleFlush/2, floored at 10ms). Only consulted when IdleFlush is
	// set.
	SweepEvery time.Duration
	// MaxSessionBytes caps the retained memory of a single session
	// (OnlineCompressor.MemoryBytes); 0 = unlimited. A push that breaches
	// the cap force-flushes the session — point included, nothing lost —
	// and returns ErrSessionTooLarge, so one runaway vehicle (a trip that
	// never ends, or data that does not compress) cannot grow without
	// bound inside the daemon.
	MaxSessionBytes int
	// OnError observes flush failures on the background sweep path, where
	// there is no caller to return them to. May be nil.
	OnError func(id uint64, err error)
	// OnFlush observes every record successfully appended to the sink,
	// after the append returns. The server uses it to update its fleet
	// index incrementally instead of rebuilding from a scan. Called with
	// the session lock held — keep it fast and never call back into the
	// Manager. May be nil.
	OnFlush func(id uint64, ct *core.Compressed)
}

// Manager holds the live per-vehicle sessions.
type Manager struct {
	comp *core.Compressor
	sink Sink
	opt  Options

	ctx    context.Context
	cancel context.CancelCauseFunc
	wg     sync.WaitGroup // idle sweeper

	mu       sync.Mutex
	sessions map[uint64]*session
	closed   bool

	flushed atomic.Uint64 // sessions flushed to the sink
	pushes  atomic.Uint64 // total points accepted

	errMu    sync.Mutex
	sweepErr error // first background flush failure
}

// session is one live vehicle: an online compressor plus idle bookkeeping.
type session struct {
	id  uint64
	mu  sync.Mutex
	oc  *core.OnlineCompressor
	at  time.Time // last push (idle-flush clock)
	end bool      // flushed or discarded; a new push creates a fresh session
}

// NewManager creates a session manager over the compressor's static
// structures, flushing finished sessions to sink. ctx is the manager's
// lifetime; cancelling it discards open sessions.
func NewManager(ctx context.Context, comp *core.Compressor, sink Sink, opt Options) (*Manager, error) {
	if comp == nil {
		return nil, errors.New("stream: nil compressor")
	}
	if sink == nil {
		return nil, errors.New("stream: nil sink")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m := &Manager{comp: comp, sink: sink, opt: opt, sessions: make(map[uint64]*session)}
	m.ctx, m.cancel = context.WithCancelCause(ctx)
	if opt.IdleFlush > 0 {
		every := opt.SweepEvery
		if every <= 0 {
			every = opt.IdleFlush / 2
		}
		if every < 10*time.Millisecond {
			every = 10 * time.Millisecond
		}
		m.wg.Add(1)
		go m.sweep(every)
	}
	return m, nil
}

// sweep periodically flushes sessions idle longer than IdleFlush.
func (m *Manager) sweep(every time.Duration) {
	defer m.wg.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case now := <-tick.C:
			for _, s := range m.snapshot() {
				// Idleness is re-checked under the session lock inside
				// flushSessionIf, so a push racing the sweeper keeps its
				// session alive instead of being flushed prematurely.
				err := m.flushSessionIf(s, func() bool { return now.Sub(s.at) >= m.opt.IdleFlush })
				if err != nil {
					m.recordSweepErr(s.id, err)
				}
			}
		}
	}
}

func (m *Manager) snapshot() []*session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		out = append(out, s)
	}
	return out
}

func (m *Manager) recordSweepErr(id uint64, err error) {
	m.errMu.Lock()
	if m.sweepErr == nil {
		m.sweepErr = err
	}
	m.errMu.Unlock()
	if m.opt.OnError != nil {
		m.opt.OnError(id, err)
	}
}

// get returns the live session for id, creating one if needed.
func (m *Manager) get(id uint64) (*session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrManagerClosed
	}
	if err := m.ctx.Err(); err != nil {
		return nil, context.Cause(m.ctx)
	}
	if s, ok := m.sessions[id]; ok {
		return s, nil
	}
	oc, err := core.NewOnlineCompressor(m.comp)
	if err != nil {
		return nil, err
	}
	s := &session{id: id, oc: oc, at: time.Now()}
	m.sessions[id] = s
	return s, nil
}

// refuse unlocks s after its compressor refused an observation and wraps the
// refusal in ErrBadObservation. A session left holding nothing ends and is
// unmapped, so pushes that are all refused leave no session behind.
func (m *Manager) refuse(s *session, err error) error {
	empty := s.oc.Empty()
	if empty {
		s.end = true
	}
	s.mu.Unlock()
	if empty {
		m.removeSession(s)
	}
	return fmt.Errorf("%w: %w", ErrBadObservation, err)
}

// PushEdge feeds the next edge vehicle id traversed, opening the session if
// necessary. A refused edge returns ErrBadObservation; NoEdge is refused
// too, since here it can only mean an edge outside the network.
func (m *Manager) PushEdge(id uint64, e roadnet.EdgeID) error {
	if e == roadnet.NoEdge {
		return fmt.Errorf("%w: edge %d is no edge", ErrBadObservation, e)
	}
	return m.push(id, Obs{Edge: e})
}

// PushSample feeds vehicle id's next (d, t) tuple, opening the session if
// necessary. A refused tuple returns ErrBadObservation.
func (m *Manager) PushSample(id uint64, p traj.Entry) error {
	return m.push(id, Obs{Edge: roadnet.NoEdge, Sample: p, HasSample: true})
}

// Push feeds one combined observation: the edge the vehicle just entered
// plus its (d, t) sample. Pass roadnet.NoEdge when the fix landed on an
// already-recorded edge. A refused observation returns ErrBadObservation
// and applies neither part.
func (m *Manager) Push(id uint64, e roadnet.EdgeID, p traj.Entry) error {
	return m.push(id, Obs{Edge: e, Sample: p, HasSample: true})
}

// push is a one-observation PushBatch.
func (m *Manager) push(id uint64, o Obs) error {
	_, err := m.PushBatch(id, []Obs{o})
	return err
}

// Obs is one observation for the batched push path: the edge the vehicle
// entered (roadnet.NoEdge when the fix stayed on the current edge), its
// (d, t) sample, or both (edge applied first, the trajectory's replay
// order). An Obs with neither is a no-op but still counts as accepted.
type Obs struct {
	Edge      roadnet.EdgeID
	Sample    traj.Entry
	HasSample bool
}

// PushBatch feeds a batch of observations for vehicle id under a single
// session-lock acquisition — the serving hot path behind the binary wire
// protocol, and the one push path: PushEdge, PushSample and Push are
// one-observation batches. It is allocation-free in steady state (the only
// allocations are the session's own retained-element growth).
//
// Each observation is applied in order, and a point that drives the session
// past Options.MaxSessionBytes force-flushes the session *including* that
// point. PushBatch then returns the number of observations applied (the
// breaching point is the last) and ErrSessionTooLarge — match with
// errors.Is; a joined flush failure means the cut trajectory was dropped,
// not stored. An observation the compressor refuses stops the batch:
// PushBatch returns the number applied before it and ErrBadObservation,
// and the session lock is released. On success it returns (len(obs), nil).
func (m *Manager) PushBatch(id uint64, obs []Obs) (int, error) {
	if len(obs) == 0 {
		m.mu.Lock()
		closed := m.closed
		m.mu.Unlock()
		if closed {
			return 0, ErrManagerClosed
		}
		if err := m.ctx.Err(); err != nil {
			return 0, context.Cause(m.ctx)
		}
		return 0, nil
	}
	for {
		s, err := m.get(id)
		if err != nil {
			return 0, err
		}
		s.mu.Lock()
		if s.end {
			s.mu.Unlock()
			// Raced with a flush that has ended s but may not have unmapped
			// it yet (an idle sweep between lookup and lock); help with the
			// removal so the retry makes progress. The push then starts a
			// fresh trajectory, which is exactly what a reappearing vehicle
			// means.
			m.removeSession(s)
			continue
		}
		maxBytes := m.opt.MaxSessionBytes
		for i := range obs {
			o := &obs[i]
			if err := s.oc.Push(o.Edge, o.Sample, o.HasSample); err != nil {
				s.oc.Park()
				s.at = time.Now()
				m.pushes.Add(uint64(i))
				return i, m.refuse(s, err)
			}
			if maxBytes > 0 && s.oc.MemoryBytes() > maxBytes {
				// Force-flush under the held lock: the record includes the
				// point just accepted, so breaching the cap truncates the
				// trajectory here instead of dropping anything. The next
				// push for this id opens a fresh session.
				err := m.flushLocked(s)
				s.mu.Unlock()
				m.removeSession(s)
				m.pushes.Add(uint64(i + 1))
				if err != nil {
					return i + 1, errors.Join(ErrSessionTooLarge, err)
				}
				return i + 1, ErrSessionTooLarge
			}
		}
		s.oc.Park() // an idle session holds no search scratch
		s.at = time.Now()
		s.mu.Unlock()
		m.pushes.Add(uint64(len(obs)))
		return len(obs), nil
	}
}

// flushSession finalizes one session and appends its record to the sink.
// An empty session (no points since it opened) ends silently — idle sweeps
// must not litter the store with empty records. The session is removed
// from the map whatever the outcome; a later push starts a new trajectory.
func (m *Manager) flushSession(s *session) error {
	return m.flushSessionIf(s, nil)
}

// flushSessionIf is flushSession gated by cond, evaluated under the session
// lock; a false cond leaves the session untouched.
//
// The sink append happens under the session lock, BEFORE the session
// leaves the map: Active() cannot reach zero until the record is in the
// sink, and a reappearing vehicle's next session (created only after the
// map removal) can never append ahead of this one, so the sink's
// latest-record-per-id semantics stay truthful.
func (m *Manager) flushSessionIf(s *session, cond func() bool) error {
	s.mu.Lock()
	if s.end || (cond != nil && !cond()) {
		s.mu.Unlock()
		return nil
	}
	err := m.flushLocked(s)
	s.mu.Unlock()
	m.removeSession(s)
	return err
}

// flushLocked finalizes s — record appended to the sink unless the session
// is empty — and marks it ended. s.mu must be held; the caller unmaps the
// session afterwards.
func (m *Manager) flushLocked(s *session) error {
	var err error
	if !s.oc.Empty() {
		var ct *core.Compressed
		if ct, err = s.oc.Flush(); err == nil {
			if err = m.sink.Append(s.id, ct); err == nil {
				m.flushed.Add(1)
				if m.opt.OnFlush != nil {
					m.opt.OnFlush(s.id, ct)
				}
			}
		}
	}
	s.end = true
	return err
}

// removeSession drops s from the map if it is still the live session for
// its id; idempotent, also called by PushBatch when it finds an ended
// session that has not been unmapped yet.
func (m *Manager) removeSession(s *session) {
	m.mu.Lock()
	if cur, ok := m.sessions[s.id]; ok && cur == s {
		delete(m.sessions, s.id)
	}
	m.mu.Unlock()
}

// aborted reports an external lifetime-context cancellation (the hard
// stop); Shutdown's own internal cancel does not count.
func (m *Manager) aborted() error {
	if m.ctx.Err() != nil {
		if cause := context.Cause(m.ctx); !errors.Is(cause, ErrManagerClosed) {
			return cause
		}
	}
	return nil
}

// Flush finalizes vehicle id's open session and appends its record to the
// sink. Flushing an id with no open session is a no-op. After an external
// lifetime-context cancellation Flush refuses with the cancellation cause
// — the hard stop means open sessions are discarded, not persisted.
func (m *Manager) Flush(id uint64) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrManagerClosed
	}
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if err := m.aborted(); err != nil {
		return err
	}
	if !ok {
		return nil
	}
	return m.flushSession(s)
}

// FlushAll finalizes every open session; the first error is returned but
// every session is attempted. Like Flush, it refuses after an external
// lifetime-context cancellation.
func (m *Manager) FlushAll() error {
	if err := m.aborted(); err != nil {
		return err
	}
	var first error
	for _, s := range m.snapshot() {
		if err := m.flushSession(s); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Checkpoint flushes every currently-open session to the sink WITHOUT
// closing the manager: each flushed vehicle's next push simply opens a
// fresh session, and the stored segments concatenate exactly as they do
// after an idle flush or a session-cap cut. This is the drain/handoff hook
// — a node leaving a cluster checkpoints so every acknowledged point is in
// the (shared) store before the router re-routes its vehicles — and also
// serves as a periodic durability bound for long-running trips.
//
// Sessions opened after the snapshot is taken are left alone. If ctx
// expires mid-checkpoint the remaining sessions stay open and ctx's error
// is returned alongside the count already flushed; nothing is discarded.
// Like Flush, it refuses after Shutdown (ErrManagerClosed) or an external
// lifetime-context cancellation. The returned count is the number of
// sessions ended; the first flush error is returned but every session
// within the deadline is attempted.
func (m *Manager) Checkpoint(ctx context.Context) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return 0, ErrManagerClosed
	}
	if err := m.aborted(); err != nil {
		return 0, err
	}
	var (
		ended int
		first error
	)
	for _, s := range m.snapshot() {
		if err := ctx.Err(); err != nil {
			if first == nil {
				first = err
			}
			return ended, first // the rest stay open for the next checkpoint
		}
		if err := m.flushSession(s); err != nil && first == nil {
			first = err
		}
		ended++
	}
	return ended, first
}

// Active returns the number of open sessions.
func (m *Manager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Flushed returns the number of session records appended to the sink.
func (m *Manager) Flushed() uint64 { return m.flushed.Load() }

// Pushes returns the total number of points accepted across all sessions.
func (m *Manager) Pushes() uint64 { return m.pushes.Load() }

// Shutdown stops the idle sweeper, flushes every open session to the sink
// and closes the manager. If ctx expires mid-flush the remaining sessions
// are discarded and ctx's error is returned; records already appended stay
// readable. After Shutdown every push returns ErrManagerClosed. It also
// surfaces the first background sweep failure, if any.
func (m *Manager) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()

	// Stop the sweeper before the final flush so the two never race.
	m.cancel(ErrManagerClosed)
	m.wg.Wait()

	if cause := context.Cause(m.ctx); cause != nil && !errors.Is(cause, ErrManagerClosed) {
		// The lifetime context was cancelled externally before Shutdown:
		// honor discard semantics — drop open sessions, keep what the sink
		// already has.
		for _, s := range m.snapshot() {
			s.mu.Lock()
			s.end = true
			s.mu.Unlock()
		}
		m.mu.Lock()
		m.sessions = map[uint64]*session{}
		m.mu.Unlock()
		return cause
	}

	var first error
	for _, s := range m.snapshot() {
		if err := ctx.Err(); err != nil {
			return err // discard the rest; the sink keeps what it has
		}
		if err := m.flushSession(s); err != nil && first == nil {
			first = err
		}
	}
	if first == nil {
		m.errMu.Lock()
		first = m.sweepErr
		m.errMu.Unlock()
	}
	return first
}

// Close is Shutdown with no deadline: every open session is flushed.
func (m *Manager) Close() error { return m.Shutdown(context.Background()) }
