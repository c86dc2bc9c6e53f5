package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"press/internal/core"
	"press/internal/geo"
	"press/internal/server"
	"press/internal/store"
)

// part is one vehicle group of a frame: obs[lo:hi] of a session's trip.
type part struct {
	sess   int32
	lo, hi int32
	flush  bool
}

// frame is one POST /v1/ingest body, described rather than encoded: the
// writer encodes it just before sending, which costs well under a
// microsecond per point and keeps resident memory the program's, not the
// generator's.
type frame struct {
	parts           []part
	points, flushes int
}

// httpRun is one of the three served workloads. They share everything but
// their fleet, their frame shapes and their read mix.
type httpRun struct {
	name    string
	seed    int64
	seconds float64
	tr      *tracer // nil in an untraced run

	in         *inputs
	f          *fleet
	baseFrames []frame // sent in set-up
	liveFrames []frame // the timed write set, in send order
	clustered  bool
	concurrent bool    // reads run beside the writes at readRate; otherwise after them, closed loop
	readRate   float64 // ops per second when concurrent
	cacheBytes int     // server QueryCacheBytes; 0 = the default
	warmBase   bool    // read every base record once between set-up and timing (see warm)
	// pick fills op i given how many live sessions are acknowledged.
	pick func(i int, acked int32, op *readOp)

	acked, sent atomic.Int32 // live sessions acknowledged / whose flush frame has been sent
	failures

	compressedBytes atomic.Int64 // Σ Compressed.SizeBytes() over flushed records (OnFlush)
}

// bulkFrames packs whole sessions [lo, hi) into frames of per trips each.
func (r *httpRun) bulkFrames(lo, hi, per int) []frame {
	var out []frame
	for i := lo; i < hi; i += per {
		var fr frame
		for j := i; j < min(i+per, hi); j++ {
			n := len(r.in.trips[r.f.sessions[j].trip].obs)
			fr.parts = append(fr.parts, part{sess: int32(j), hi: int32(n), flush: true})
			fr.points += n
			fr.flushes++
		}
		out = append(out, fr)
	}
	return out
}

// deployment is a booted system with its base fleet ingested.
type deployment struct {
	sys   *system
	nodes []*node
	cl    *fleetNodes // nil for a single node
	url   string      // where clients send
	dir   string
}

// close tears down whatever part of the deployment was built.
func (d *deployment) close() error {
	var err error
	if d.cl != nil {
		err = d.cl.close()
	} else {
		for _, n := range d.nodes {
			err = errors.Join(err, n.close())
		}
	}
	if d.sys != nil {
		err = errors.Join(err, d.sys.close())
	}
	return errors.Join(err, os.RemoveAll(d.dir))
}

// deploy is the program's set-up: hierarchy build, snapshot save and map,
// codebook training, store creation, index priming, server (and router)
// boot, and the base fleet's ingest through the front door.
func (r *httpRun) deploy(root string) (d *deployment, err error) {
	dir, err := os.MkdirTemp(root, "deploy")
	if err != nil {
		return nil, err
	}
	d = &deployment{dir: dir}
	defer func() {
		if err != nil {
			d, err = nil, errors.Join(err, d.close())
		}
	}()
	if d.sys, err = bootSystem(r.in.g, r.in.training, dir, r.tr); err != nil {
		return d, err
	}
	var wrapNode, wrapRouter func(http.Handler) http.Handler
	if r.tr != nil {
		wrapNode, wrapRouter = r.tr.wrapNode, r.tr.wrapRouter
	}
	if r.clustered {
		if d.cl, err = bootCluster(d.sys, dir, r.nodeOptions, wrapNode, wrapRouter); err != nil {
			return d, err
		}
		d.nodes, d.url = d.cl.nodes, d.cl.url
	} else {
		n, err := bootNode(d.sys, filepath.Join(dir, "fleet"), r.nodeOptions(server.ClusterOptions{}), wrapNode)
		if err != nil {
			return d, err
		}
		d.nodes, d.url = []*node{n}, n.url
	}
	if err := r.ingest(d.url, r.baseFrames); err != nil {
		return d, fmt.Errorf("base fleet: %w", err)
	}
	return d, nil
}

// nodeOptions is the fixed server configuration; the flush hook only adds
// up record sizes for compression_ratio.
func (r *httpRun) nodeOptions(cl server.ClusterOptions) server.Options {
	opt := server.Options{IncrementalIndex: true, QueryCacheBytes: r.cacheBytes, Cluster: cl}
	opt.Stream.OnFlush = func(_ uint64, ct *core.Compressed) { r.compressedBytes.Add(int64(ct.SizeBytes())) }
	return opt
}

// ingest sends frames over nproc connections and fails on the first frame
// not acknowledged in full (set-up traffic: no latencies kept).
func (r *httpRun) ingest(url string, frames []frame) error {
	conns := r.conns(url, nproc())
	defer closeConns(conns)
	var first atomic.Pointer[error]
	closedLoop(len(conns), func(i int) bool { return i < len(frames) && first.Load() == nil }, func(w, i int) {
		if err := r.send(conns[w], &frames[i]); err != nil {
			first.CompareAndSwap(nil, &err)
		}
	})
	if p := first.Load(); p != nil {
		return *p
	}
	return nil
}

func (r *httpRun) conns(url string, n int) []*httpConn {
	out := make([]*httpConn, n)
	for i := range out {
		out[i] = newHTTPConn(url)
	}
	return out
}

func closeConns(cs []*httpConn) {
	for _, c := range cs {
		c.close()
	}
}

// send encodes and posts one frame and checks the acknowledgement.
func (r *httpRun) send(c *httpConn, fr *frame) error {
	c.enc.Reset()
	for _, p := range fr.parts {
		r.in.encodeSession(&c.enc, r.f.sessions[p.sess], int(p.lo), int(p.hi), p.flush)
	}
	status, body := c.postFrame()
	return checkAck(status, body, fr.points, fr.flushes)
}

// write is one timed write op. The flush counters move whether or not the
// frame succeeded so that session indexes stay aligned with the schedule;
// a failed frame is counted and its sessions' reads will fail too.
func (r *httpRun) write(c *httpConn, i int, fr *frame) {
	if r.tr != nil && r.tr.block(i) {
		defer r.tr.endOp(r.tr.beginOp("op.write"))
	}
	r.sent.Add(int32(fr.flushes))
	r.add(r.send(c, fr))
	r.acked.Add(int32(fr.flushes))
}

// read is one timed read op: choose, ask, keep the answer for the oracle.
func (r *httpRun) read(c *httpConn, i int, op *readOp) {
	op.acked = r.acked.Load()
	r.pick(i, op.acked, op)
	if r.tr != nil && r.tr.block(i) {
		defer r.tr.endOp(r.tr.beginOp("op.read." + kindName[op.kind]))
	}
	q := r.f.query(op, nil)
	t0 := time.Now()
	op.status, op.body = c.get(q)
	op.ms = float64(time.Since(t0)) / 1e6
	op.sent = r.sent.Load()
}

// warm walks every base record once, untimed, so that timing starts on a
// node that has been up for a while: each record decoded in the query cache
// and the engine's per-segment geometry memo filled for the roads the base
// fleet drove. A fleet read verifies its candidates on exactly those; cold, it
// costs 25-80 ms beside the writer against ~1.5 ms warm, so a run measured
// how far through its first visits it had got, and its tail with it. The
// walk is one single-vehicle range per record over the whole trip with a box
// beside the city (every segment's MBR is computed, none matches), then one
// fleet read, so that the index has taken the base fleet in.
func (r *httpRun) warm(url string) error {
	if !r.warmBase {
		return nil
	}
	c := newHTTPConn(url)
	defer c.close()
	net := r.in.g.MBR()
	beside := window{box: geo.NewMBR(geo.Point{X: net.MaxX + 1000, Y: net.MaxY + 1000}, geo.Point{X: net.MaxX + 2000, Y: net.MaxY + 2000})}
	for a := 0; a <= r.f.base; a++ {
		var q []byte
		if a < r.f.base {
			s := r.f.sessions[a]
			beside.t1, beside.t2 = s.shift, s.shift+r.in.trips[s.trip].duration()
			q = appendUint(beside.query(nil), "&id=", s.id)
		} else {
			q = r.f.windows[0].query(nil)
		}
		if status, body := c.get(q); status != http.StatusOK {
			return fmt.Errorf("warm-up read %s: HTTP %d: %s", q, status, body)
		}
	}
	return nil
}

// phaseTimes is what the timed phases measured.
type phaseTimes struct {
	writes *timedOps
	reads  *timedOps
	lateMs []float64 // open-loop generator lateness
	ops    []readOp  // every read issued, with its answer
}

// maxClosedReads bounds the answers a closed-loop read phase keeps.
const maxClosedReads = 150_000

// writePhase sends frames in order over `writers` connections, closed
// loop, stopping early only if until is set and passes. It returns how many
// frames it sent.
func (r *httpRun) writePhase(pt *phaseTimes, url string, frames []frame, writers int, until time.Time) int {
	conns := r.conns(url, writers)
	defer closeConns(conns)
	pt.writes = timedClosedLoop(writers, len(frames), until, func(w, i int) { r.write(conns[w], i, &frames[i]) })
	return len(pt.writes.ms)
}

// readOpen is the fixed-rate reader: one connection, ops due on schedule
// until stop reports true.
func (r *httpRun) readOpen(pt *phaseTimes, url string, stop func() bool) {
	c := newHTTPConn(url)
	defer c.close()
	ol := &openLoop{rate: r.readRate}
	ol.run(stop, func(i int) {
		pt.ops = append(pt.ops, readOp{})
		r.read(c, i, &pt.ops[len(pt.ops)-1])
	})
	pt.reads, pt.lateMs = &ol.timedOps, ol.lateMs
}

// readClosed reads over `workers` connections, closed loop, for d.
func (r *httpRun) readClosed(pt *phaseTimes, url string, workers int, d time.Duration) {
	conns := r.conns(url, workers)
	defer closeConns(conns)
	ops := make([]readOp, maxClosedReads)
	pt.reads = timedClosedLoop(workers, maxClosedReads, time.Now().Add(d), func(w, i int) { r.read(conns[w], i, &ops[i]) })
	pt.ops = ops[:len(pt.reads.ms)]
}

// timed runs the workload's timed part the way its loop column in
// README.md says: reads beside the writes at a fixed rate, or after them.
func (r *httpRun) timed(url string) *phaseTimes {
	pt := &phaseTimes{}
	if !r.concurrent {
		r.writePhase(pt, url, r.liveFrames, nproc(), time.Time{})
		r.readClosed(pt, url, nproc(), time.Duration(r.seconds/2*float64(time.Second)))
		return pt
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.readOpen(pt, url, done.Load)
	}()
	r.writePhase(pt, url, r.liveFrames, 1, time.Time{})
	done.Store(true)
	wg.Wait()
	return pt
}

// verify checks every read answer, on all cores, after the timed phase.
func (r *httpRun) verify(orc *oracle, reads []readOp) {
	if r.f.windows != nil && orc.must == nil {
		orc.prepareWindows()
	}
	closedLoop(nproc(), func(i int) bool { return i < len(reads) }, func(_, i int) {
		if err := orc.check(&reads[i]); err != nil {
			r.add(fmt.Errorf("read %d: %w", i, err))
		}
	})
}

// run executes the workload and fills res.
func (r *httpRun) run(res *result) error {
	root, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	if r.tr != nil {
		return r.runTraced(root, res)
	}
	var dep *deployment
	setups := make([]float64, 0, setupRepeats)
	for k := 0; k < setupRepeats; k++ {
		if dep != nil {
			if err := dep.close(); err != nil {
				return err
			}
		}
		r.compressedBytes.Store(0)
		t0 := time.Now()
		if dep, err = r.deploy(root); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer dep.close()
	t0 := time.Now()
	if err := r.warm(dep.url); err != nil {
		return err
	}
	res.sizes["warm_s"] = time.Since(t0).Seconds()

	pt := r.timed(dep.url)
	stored := storedBytes(dep.nodes...)
	r.verify(newOracle(r.f), pt.ops)
	if r.clustered {
		if err := r.compareWithSingleNode(root, dep, pt.ops); err != nil {
			return err
		}
	}

	points, rawBytes := 0, 0
	for _, frames := range [][]frame{r.baseFrames, r.liveFrames} {
		for i := range frames {
			points += frames[i].points
		}
	}
	for _, s := range r.f.sessions {
		rawBytes += r.in.rawBytes(s)
	}
	writes, firstFrame := pt.writes.steady()
	reads, _ := pt.reads.steady()
	res.Attempted = len(r.liveFrames) + len(pt.ops)
	res.Failed = r.count()
	res.samples["write"], res.samples["read"] = len(writes.ms), len(reads.ms)
	res.set("setup_s", median(setups))
	res.set("write_points_per_s", writes.rate(func(i int) float64 { return float64(r.liveFrames[firstFrame+i].points) }))
	res.set("write_p50_ms", writes.p50())
	res.set("write_p99_ms", writes.p99())
	if r.concurrent { // achieved rate: a due-time slice would only give the schedule back
		res.set("read_ops_per_s", float64(len(reads.ms))/(reads.endAt-reads.at[0]))
	} else {
		res.set("read_ops_per_s", reads.rate(func(int) float64 { return 1 }))
	}
	res.set("read_p50_ms", reads.p50())
	res.set("read_p99_ms", reads.p99())
	res.set("compression_ratio", float64(rawBytes)/float64(r.compressedBytes.Load()))
	res.set("stored_bytes_per_point", float64(stored)/float64(points))
	res.set("peak_rss_mb", peakRSSMiB())
	res.sizes["base_sessions"] = float64(r.f.base)
	res.sizes["write_sessions"] = float64(len(r.f.sessions) - r.f.base)
	res.sizes["write_frames"] = float64(len(r.liveFrames))
	res.sizes["points_stored"] = float64(points)
	res.sizes["stored_bytes"] = float64(stored)
	res.sizes["inputs_s"] = r.in.genS
	if r.concurrent {
		late := percentile(pt.lateMs, 0.99)
		res.sizes["read_rate_per_s"] = r.readRate
		res.sizes["gen_late_p99_ms"] = late
		if late > lateLimitMs {
			res.note("INVALID: the open-loop reader ran late (p99 %.2f ms > %v ms); its latencies include the generator's own delay", late, lateLimitMs)
		}
	}
	return nil
}

// compareWithSingleNode re-issues a deterministic sample of the timed
// reads, now that the fleet is complete, against the router and against one
// single node holding the same records; the bodies must be the same bytes.
// The reference node's store is filled record by record from the cluster's
// stores — re-ingesting the fleet would cost as much as the workload — so
// this checks routing, gathering and record shipping, not ingest.
func (r *httpRun) compareWithSingleNode(root string, dep *deployment, reads []readOp) error {
	ref, err := bootNode(dep.sys, filepath.Join(root, "reference"), server.Options{IncrementalIndex: true}, nil)
	if err != nil {
		return err
	}
	defer ref.close()
	for _, s := range r.f.sessions {
		ct, _, err := dep.nodes[store.ShardOf(s.id, len(dep.nodes))].st.GetRecord(s.id)
		if err == nil {
			err = ref.st.Append(s.id, ct)
		}
		if err != nil {
			return fmt.Errorf("reference node: %w", err)
		}
	}
	rc, sc := newHTTPConn(dep.url), newHTTPConn(ref.url)
	defer rc.close()
	defer sc.close()
	n := min(clusterCompareSample, len(reads))
	for k := 0; k < n; k++ {
		q := r.f.query(&reads[k*len(reads)/n], nil)
		rs, rb := rc.get(q)
		ss, sb := sc.get(q)
		if rs != ss || string(rb) != string(sb) {
			r.add(fmt.Errorf("%s: router answered %d %q, single node %d %q", q, rs, rb, ss, sb))
		}
	}
	return nil
}

// --- the three served workloads ---

// writeSeconds is how long a workload's write set is meant to take: the
// whole budget when reads run beside it, half when they follow. A traced
// run writes for a quarter of the budget with one client, where the
// sequential workloads' rates assume nproc.
func writeSeconds(seconds float64, traced, concurrent bool) float64 {
	switch {
	case traced && concurrent:
		return seconds / 4
	case traced:
		return seconds / 4 / float64(nproc())
	case concurrent:
		return seconds
	}
	return seconds / 2
}

// current returns up to n stored sessions that are the latest record of
// their vehicle, newest first.
func (r *httpRun) current(n int) []int {
	seen := make(map[uint64]bool, n)
	var out []int
	for i := r.f.base + int(r.acked.Load()) - 1; i >= 0 && len(out) < n; i-- {
		if id := r.f.sessions[i].id; !seen[id] {
			seen[id] = true
			out = append(out, i)
		}
	}
	return out
}

func newNodeLive(seed int64, seconds float64, tr *tracer) (*httpRun, error) {
	in, err := generate(seed, distinctTrips, false)
	if err != nil {
		return nil, err
	}
	r := &httpRun{name: "node_live", seed: seed, seconds: seconds, tr: tr, in: in, concurrent: true, readRate: liveReadRate}
	base := in.replicate(liveBaseSessions, 0, liveBaseSessions, func(i int) uint64 { return uint64(i) })
	nLive := int(math.Ceil(liveSessionsPerSec * writeSeconds(seconds, tr != nil, true)))
	started := in.replicate(nLive, 1, liveVehicleCycle, func(i int) uint64 { return uint64(i % liveVehicleCycle) })

	// The feed interleaves liveActiveVehicles vehicles, one chunk each in
	// turn; a vehicle that ends its trip is flushed and the next one takes
	// its slot. Sessions are stored in the fleet in the order they flush.
	type cursor struct{ sess, at int }
	var active []cursor
	next := 0
	for len(active) < liveActiveVehicles && next < nLive {
		active = append(active, cursor{sess: next})
		next++
	}
	var frames []frame
	var flushOrder []int
	for len(active) > 0 {
		for k := 0; k < len(active); k++ {
			c := &active[k]
			n := len(in.trips[started[c.sess].trip].obs)
			hi := min(c.at+liveChunkObs, n)
			fr := frame{parts: []part{{sess: int32(c.sess), lo: int32(c.at), hi: int32(hi), flush: hi == n}}, points: hi - c.at}
			c.at = hi
			if hi == n {
				fr.flushes = 1
				flushOrder = append(flushOrder, c.sess)
				if next < nLive {
					*c = cursor{sess: next}
					next++
				} else {
					active = append(active[:k], active[k+1:]...)
					k--
				}
			}
			frames = append(frames, fr)
		}
	}
	place := make([]int32, nLive) // start order -> fleet index
	sessions := base
	for _, s := range flushOrder {
		place[s] = int32(len(sessions))
		sessions = append(sessions, started[s])
	}
	for i := range frames {
		frames[i].parts[0].sess = place[frames[i].parts[0].sess]
	}
	r.f = &fleet{in: in, sessions: sessions, base: len(base)}
	r.baseFrames = r.bulkFrames(0, len(base), baseTripsPerFrame)
	r.liveFrames = frames

	// Reads go to the vehicles flushed most recently, Zipf over recency;
	// while fewer than rank+1 have flushed, to base vehicles no live trip
	// ever replaces (ids at or above the cycle), so the record a read
	// addresses is never the one being replaced.
	zipf := newZipfPicker(seed*7919+5, liveZipfS, liveHotSet)
	hot := func(acked int32) int {
		rank := int32(zipf.next())
		if rank < acked {
			return len(base) + int(acked-1-rank)
		}
		return liveVehicleCycle + int(rank-acked)%(len(base)-liveVehicleCycle)
	}
	r.pick = func(i int, acked int32, op *readOp) {
		a := hot(acked)
		switch u := kindShare(i); {
		case u < 0.7:
			r.f.pointOp(op, false, a, u01(seed, i, 1))
		case u < 0.9:
			r.f.pointOp(op, true, a, u01(seed, i, 1))
		default:
			b := hot(acked)
			for b == a {
				b = hot(acked)
			}
			op.kind, op.a, op.b = kMinDist, int32(a), int32(b)
		}
	}
	return r, nil
}

func newNodeScan(seed int64, seconds float64, tr *tracer) (*httpRun, error) {
	in, err := generate(seed, distinctTrips, false)
	if err != nil {
		return nil, err
	}
	r := &httpRun{name: "node_scan", seed: seed, seconds: seconds, tr: tr, in: in, cacheBytes: scanCacheBytes}
	n := int(math.Ceil(scanSessionsPerSec * writeSeconds(seconds, tr != nil, false)))
	sessions := in.replicate(n, 0, fleetPerEpoch, func(i int) uint64 { return uint64(i) })
	r.f = &fleet{in: in, sessions: sessions, windows: in.windowPool(seed, scanWindowPool, sessions)}
	r.liveFrames = r.bulkFrames(0, n, scanTripsPerFrame)
	r.pick = func(i int, acked int32, op *readOp) {
		anyOf := func(salt int) int { return int(u01(seed, i, salt) * float64(acked)) }
		switch u := kindShare(i); {
		case u < 0.25:
			op.kind, op.a = kFleetRange, int32(u01(seed, i, 1)*float64(len(r.f.windows)))
		case u < 0.85:
			r.f.pointOp(op, false, anyOf(1), u01(seed, i, 2))
		default:
			a, b := anyOf(1), anyOf(2)
			if b == a {
				b = (a + 1) % int(acked)
			}
			op.kind, op.a, op.b = kMinDist, int32(a), int32(b)
		}
	}
	return r, nil
}

func newClusterMix(seed int64, seconds float64, tr *tracer) (*httpRun, error) {
	in, err := generate(seed, distinctTrips, false)
	if err != nil {
		return nil, err
	}
	r := &httpRun{name: "cluster_mix", seed: seed, seconds: seconds, tr: tr, in: in, clustered: true, concurrent: true, readRate: clusterReadRate, warmBase: true}
	nLive := int(math.Ceil(clusterSessionsPerSec * writeSeconds(seconds, tr != nil, true)))
	total := clusterBaseSessions + nLive
	// One id space and one timeline: live sessions are new vehicles in the
	// epochs after the base fleet's. Fleet reads ask about the base fleet's
	// epochs, whose records are all stored (and, after warm, decoded) from the
	// first timed op on: every fleet read does the same kind of work, while
	// the index it walks grows under it. The miss path is node_scan's.
	sessions := in.replicate(total, 0, fleetPerEpoch, func(i int) uint64 { return uint64(i) })
	r.f = &fleet{in: in, sessions: sessions, base: clusterBaseSessions, windows: in.windowPool(seed, clusterWindowPool, sessions[:clusterBaseSessions])}
	r.baseFrames = r.bulkFrames(0, clusterBaseSessions, baseTripsPerFrame)
	r.liveFrames = r.bulkFrames(clusterBaseSessions, total, scanTripsPerFrame)
	owner := func(sess int) int { return store.ShardOf(sessions[sess].id, clusterNodes) }
	r.pick = func(i int, acked int32, op *readOp) {
		stored := clusterBaseSessions + int(acked)
		anyOf := func(salt int) int { return int(u01(seed, i, salt) * float64(stored)) }
		switch u := kindShare(i); {
		case u < 0.6:
			r.f.pointOp(op, false, anyOf(1), u01(seed, i, 2))
		case u < 0.85:
			op.kind, op.a = kFleetRange, int32(u01(seed, i, 1)*float64(len(r.f.windows)))
		default:
			// Every other pair spans the two partitions: the router then
			// ships b's record to a's owner.
			a, b := anyOf(1), anyOf(2)
			for b == a || (owner(b) != owner(a)) != (i%2 == 0) {
				b = (b + 1) % stored
			}
			op.kind, op.a, op.b = kMinDist, int32(a), int32(b)
		}
	}
	return r, nil
}

// nodeStats is the part of /v1/stats the layer metrics read.
type nodeStats struct {
	Query struct {
		Cache struct {
			Hits         uint64 `json:"hits"`
			Misses       uint64 `json:"misses"`
			Evictions    uint64 `json:"evictions"`
			ResultHits   uint64 `json:"result_hits"`
			ResultMisses uint64 `json:"result_misses"`
		} `json:"cache"`
		Decodes uint64 `json:"decodes"`
	} `json:"query"`
	Index struct {
		Incremental struct {
			Buckets        int    `json:"buckets"`
			SummaryRejects uint64 `json:"summary_rejects"`
			BucketsSkipped uint64 `json:"buckets_skipped"`
			Candidates     uint64 `json:"candidates"`
			Verifies       uint64 `json:"verifies"`
			Hits           uint64 `json:"hits"`
		} `json:"incremental"`
	} `json:"index"`
}

// fetchNodeStats sums /v1/stats over the nodes.
func fetchNodeStats(nodes []*node) (nodeStats, error) {
	var sum nodeStats
	for _, n := range nodes {
		c := newHTTPConn(n.url)
		status, body := c.get([]byte("/v1/stats"))
		c.close()
		if status != http.StatusOK {
			return sum, fmt.Errorf("/v1/stats: HTTP %d", status)
		}
		var s nodeStats
		if err := json.Unmarshal(body, &s); err != nil {
			return sum, err
		}
		sum.Query.Cache.Hits += s.Query.Cache.Hits
		sum.Query.Cache.Misses += s.Query.Cache.Misses
		sum.Query.Cache.Evictions += s.Query.Cache.Evictions
		sum.Query.Cache.ResultHits += s.Query.Cache.ResultHits
		sum.Query.Cache.ResultMisses += s.Query.Cache.ResultMisses
		sum.Query.Decodes += s.Query.Decodes
		sum.Index.Incremental.Buckets += s.Index.Incremental.Buckets
		sum.Index.Incremental.SummaryRejects += s.Index.Incremental.SummaryRejects
		sum.Index.Incremental.BucketsSkipped += s.Index.Incremental.BucketsSkipped
		sum.Index.Incremental.Candidates += s.Index.Incremental.Candidates
		sum.Index.Incremental.Verifies += s.Index.Incremental.Verifies
		sum.Index.Incremental.Hits += s.Index.Incremental.Hits
	}
	return sum, nil
}
