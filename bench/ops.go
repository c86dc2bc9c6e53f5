package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"press/internal/geo"
	"press/internal/query"
	"press/internal/roadnet"
	"press/internal/traj"
	"press/internal/wire"
)

// readKind names the read ops the workloads issue.
type readKind uint8

const (
	kWhereAt readKind = iota
	kWhenAt
	kMinDist
	kFleetRange
	kDecompress // batch_gps only: Get + Decompress
	kRange      // batch_gps only: single-trajectory range
	numKinds
)

var kindName = [numKinds]string{"whereat", "whenat", "mindistance", "range", "decompress", "range1"}

// readOp is one read with everything needed to check its answer after the
// timed phase: which sessions it addressed, what it asked, what came back,
// and how far the writer had got when it was sent and when it returned.
type readOp struct {
	kind readKind
	a, b int32   // session indexes; for kFleetRange a is the window index
	t    float64 // whereat instant (absolute time)
	pt   int8    // whenat: index into the trip's whenPts

	acked, sent int32 // live sessions acknowledged at send / flush frames sent by return

	status int
	body   []byte
	ms     float64 // request round trip, send to last byte
}

// mix is splitmix64 over (seed, i, salt): op i's parameters come from here
// so they do not depend on which client goroutine happens to run it.
func mix(seed int64, i, salt int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + uint64(salt)*0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// u01 maps mix to [0, 1).
func u01(seed int64, i, salt int) float64 {
	return float64(mix(seed, i, salt)>>11) / (1 << 53)
}

// kindShare maps op i to [0, 1) for choosing its kind against the mix's
// cumulative shares. It is the golden-ratio sequence, not a random draw: any
// stretch of consecutive ops then holds the kinds in the mix's proportions
// to within an op or two, for every seed. Drawn at random, the number of
// fleet reads in a slice of node_scan's read phase (a quarter of 1 100 ops)
// varied by 5 %, and they are nine tenths of the slice's time.
func kindShare(i int) float64 {
	_, frac := math.Modf(float64(i) * 0.6180339887498949)
	return frac
}

// httpConn is one client connection: requests on it are strictly
// sequential, so the load generator never holds more connections than it
// has httpConns.
type httpConn struct {
	c    *http.Client
	base string
	url  []byte
	buf  bytes.Buffer
	enc  wire.Encoder
}

func newHTTPConn(base string) *httpConn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &httpConn{c: &http.Client{Transport: tr}, base: base}
}

func (h *httpConn) close() { h.c.CloseIdleConnections() }

// do sends one request and returns the status and a private copy of the
// body. A transport error reports status 0.
func (h *httpConn) do(req *http.Request) (int, []byte) {
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, []byte(err.Error())
	}
	h.buf.Reset()
	_, err = io.Copy(&h.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, []byte(err.Error())
	}
	return resp.StatusCode, append([]byte(nil), h.buf.Bytes()...)
}

func (h *httpConn) get(pathAndQuery []byte) (int, []byte) {
	h.url = append(append(h.url[:0], h.base...), pathAndQuery...)
	req, err := http.NewRequest(http.MethodGet, string(h.url), nil)
	if err != nil {
		return 0, []byte(err.Error())
	}
	return h.do(req)
}

// postFrame sends the frame under construction in h.enc to /v1/ingest.
func (h *httpConn) postFrame() (int, []byte) {
	req, err := http.NewRequest(http.MethodPost, h.base+"/v1/ingest", bytes.NewReader(h.enc.Finish()))
	if err != nil {
		return 0, []byte(err.Error())
	}
	req.Header.Set("Content-Type", wire.ContentType)
	return h.do(req)
}

func appendFloat(b []byte, key string, v float64) []byte {
	b = append(b, key...)
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func appendUint(b []byte, key string, v uint64) []byte {
	b = append(b, key...)
	return strconv.AppendUint(b, v, 10)
}

// fleet is what an HTTP workload reads and writes: base sessions first
// (pre-ingested in set-up), then live sessions in the order the writer
// flushes them.
type fleet struct {
	in       *inputs
	sessions []session
	base     int      // sessions[:base] are pre-ingested
	windows  []window // fleet-range pool, nil when the workload has none
}

// query builds op's request path. It is a pure function of the op, so the
// cluster comparison can re-issue the very same request later.
func (f *fleet) query(op *readOp, b []byte) []byte {
	switch op.kind {
	case kWhereAt:
		b = appendUint(append(b, "/v1/whereat"...), "?id=", f.sessions[op.a].id)
		b = appendFloat(b, "&t=", op.t)
	case kWhenAt:
		s := f.sessions[op.a]
		p := f.in.trips[s.trip].whenPts[op.pt].p
		b = appendUint(append(b, "/v1/whenat"...), "?id=", s.id)
		b = appendFloat(appendFloat(b, "&x=", p.X), "&y=", p.Y)
	case kMinDist:
		b = appendUint(append(b, "/v1/mindistance"...), "?a=", f.sessions[op.a].id)
		b = appendUint(b, "&b=", f.sessions[op.b].id)
	case kFleetRange:
		b = f.windows[op.a].query(b)
	}
	return b
}

// query appends the fleet-range request for w.
func (w window) query(b []byte) []byte {
	b = appendFloat(append(b, "/v1/range"...), "?t1=", w.t1)
	b = appendFloat(b, "&t2=", w.t2)
	b = appendFloat(appendFloat(b, "&xmin=", w.box.MinX), "&ymin=", w.box.MinY)
	return appendFloat(appendFloat(b, "&xmax=", w.box.MaxX), "&ymax=", w.box.MaxY)
}

// pointOp fills op as a whereat or whenat on session a; u picks the
// instant or point. Instants come from a small per-trip set so that hot
// vehicles receive identical requests again (what the result memo serves).
// A trip with no unambiguous whenat point gets a whereat instead.
func (f *fleet) pointOp(op *readOp, wantWhen bool, a int, u float64) {
	s := f.sessions[a]
	tp := &f.in.trips[s.trip]
	op.a = int32(a)
	if wantWhen && len(tp.whenPts) > 0 {
		op.kind, op.pt = kWhenAt, int8(u*float64(len(tp.whenPts)))
		return
	}
	k := math.Floor(u * liveTimesPerTrip)
	op.kind, op.t = kWhereAt, s.shift+(k+0.5)/liveTimesPerTrip*tp.duration()
}

// oracle checks answers against the uncompressed truth the fleet was
// generated from. Spatial answers must be exact; temporal ones may differ
// by the configured BTC bounds, which is the paper's guarantee and no more.
type oracle struct {
	f *fleet

	mu      sync.Mutex
	minDist map[[2]int32]float64 // by trip pair; mindistance ignores time

	must, may [][]int32 // per window: session indexes, ascending
}

const (
	// Stored (d, t) are float32; at city scale and these epochs that is
	// millimetres and milliseconds. The slack covers it with room.
	slackMeters  = 0.5
	slackSeconds = 0.5
)

func newOracle(f *fleet) *oracle {
	return &oracle{f: f, minDist: make(map[[2]int32]float64)}
}

// prepareWindows computes, for every window in the pool, which sessions
// must be in the answer and which may be. A compressed position is within
// tau of the true one at every instant, so a vehicle truly inside the box
// shrunk by tau must be reported, and one reported must truly be inside
// the box grown by tau.
func (o *oracle) prepareWindows() {
	f := o.f
	o.must = make([][]int32, len(f.windows))
	o.may = make([][]int32, len(f.windows))
	closedLoop(nproc(), func(i int) bool { return i < len(f.windows) }, func(_, i int) {
		o.must[i], o.may[i] = o.windowSets(f.windows[i])
	})
}

func (o *oracle) windowSets(w window) (must, may []int32) {
	f := o.f
	grown := w.box.Expand(tauMeters + slackMeters)
	shrunk := w.box.Expand(-(tauMeters + slackMeters))
	for i, s := range f.sessions {
		tp := &f.in.trips[s.trip]
		if s.shift > w.t2 || s.shift+tp.duration() < w.t1 || !tp.mbr.Intersects(grown) {
			continue
		}
		if !query.RangeRaw(f.in.g, tp.truth, w.t1-s.shift, w.t2-s.shift, grown) {
			continue
		}
		may = append(may, int32(i))
		if !shrunk.IsEmpty() && query.RangeRaw(f.in.g, tp.truth, w.t1-s.shift, w.t2-s.shift, shrunk) {
			must = append(must, int32(i))
		}
	}
	return must, may
}

// check reports whether op's answer is right.
func (o *oracle) check(op *readOp) error {
	if op.status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", kindName[op.kind], op.status, bytes.TrimSpace(op.body))
	}
	f := o.f
	switch op.kind {
	case kWhereAt:
		var ans struct{ X, Y float64 }
		if err := json.Unmarshal(op.body, &ans); err != nil {
			return err
		}
		return f.placed(op.a).checkWhereAt(f.in.g, op.t, geo.Point{X: ans.X, Y: ans.Y})
	case kWhenAt:
		var ans struct{ T float64 }
		if err := json.Unmarshal(op.body, &ans); err != nil {
			return err
		}
		s := f.sessions[op.a]
		return f.placed(op.a).checkWhenAt(f.in.g, f.in.trips[s.trip].whenPts[op.pt], ans.T)
	case kMinDist:
		var ans struct{ Distance float64 }
		if err := json.Unmarshal(op.body, &ans); err != nil {
			return err
		}
		want := o.minDistance(f.sessions[op.a].trip, f.sessions[op.b].trip)
		if math.Abs(ans.Distance-want) > 1e-6 {
			return fmt.Errorf("mindistance(%d,%d) = %v, truth %v", op.a, op.b, ans.Distance, want)
		}
	case kFleetRange:
		var ans struct{ IDs []uint64 }
		if err := json.Unmarshal(op.body, &ans); err != nil {
			return err
		}
		return o.checkFleetRange(op, ans.IDs)
	}
	return nil
}

// placed is an uncompressed trajectory on the fleet's timeline: what a
// stored record is checked against.
type placed struct {
	id    uint64
	truth *traj.Trajectory
	shift float64
}

func (f *fleet) placed(sess int32) placed {
	s := f.sessions[sess]
	return placed{id: s.id, truth: f.in.trips[s.trip].truth, shift: s.shift}
}

func (p placed) checkWhereAt(g *roadnet.Graph, t float64, got geo.Point) error {
	want := query.WhereAtRaw(g, p.truth, t-p.shift)
	if d := got.Dist(want); d > tauMeters+slackMeters {
		return fmt.Errorf("whereat(id %d, t %v) is %.1f m from the truth, bound %v", p.id, t, d, tauMeters)
	}
	return nil
}

// checkWhenAt accepts an arrival time within eta of the truth's. Arrival
// time jumps where the vehicle stood still, and the stored distances are
// float32, so the truth is taken over the slack around the point's
// distance: from the first arrival just before it to just after it.
func (p placed) checkWhenAt(g *roadnet.Graph, wp whenPoint, got float64) error {
	want, err := query.WhenAtRaw(g, p.truth, wp.p)
	if err != nil {
		return err
	}
	lo := math.Min(want, p.truth.Temporal.Tim(wp.d-slackMeters)) + p.shift
	hi := math.Max(want, p.truth.Temporal.Tim(wp.d+slackMeters)) + p.shift
	if got < lo-etaSeconds-slackSeconds || got > hi+etaSeconds+slackSeconds {
		return fmt.Errorf("whenat(id %d, %v) = %.1f, truth [%.1f, %.1f], bound %v s", p.id, wp.p, got, lo, hi, etaSeconds)
	}
	return nil
}

func (o *oracle) minDistance(a, b int32) float64 {
	key := [2]int32{a, b}
	o.mu.Lock()
	d, ok := o.minDist[key]
	o.mu.Unlock()
	if ok {
		return d
	}
	d = query.MinDistanceRaw(o.f.in.g, o.f.in.trips[a].truth, o.f.in.trips[b].truth)
	o.mu.Lock()
	o.minDist[key] = d
	o.mu.Unlock()
	return d
}

// checkFleetRange: every must-session stored before the request was sent
// has to be reported, and nothing may be reported that is not a
// may-session stored by the time the answer came back.
func (o *oracle) checkFleetRange(op *readOp, ids []uint64) error {
	f := o.f
	stored := func(sess int32, liveBound int32) bool {
		return int(sess) < f.base || sess-int32(f.base) < liveBound
	}
	got := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		got[id] = true
	}
	for _, s := range o.must[op.a] {
		if stored(s, op.acked) && !got[f.sessions[s].id] {
			return fmt.Errorf("fleet range window %d misses vehicle %d", op.a, f.sessions[s].id)
		}
	}
	allowed := make(map[uint64]bool, len(o.may[op.a]))
	for _, s := range o.may[op.a] {
		if stored(s, op.sent) {
			allowed[f.sessions[s].id] = true
		}
	}
	for _, id := range ids {
		if !allowed[id] {
			return fmt.Errorf("fleet range window %d reports vehicle %d, which was not there", op.a, id)
		}
	}
	return nil
}

// wireAck is the body a binary ingest answers with.
type wireAck struct {
	Accepted int    `json:"accepted"`
	Flushed  int    `json:"flushed"`
	Error    string `json:"error"`
}

// checkAck verifies that a frame was acknowledged in full.
func checkAck(status int, body []byte, points, flushes int) error {
	if status != http.StatusOK {
		return fmt.Errorf("ingest: HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	var ack wireAck
	if err := json.Unmarshal(body, &ack); err != nil {
		return err
	}
	if ack.Accepted != points || ack.Flushed != flushes || ack.Error != "" {
		return fmt.Errorf("ingest: acknowledged %d points %d flushes (%q), sent %d and %d",
			ack.Accepted, ack.Flushed, ack.Error, points, flushes)
	}
	return nil
}
