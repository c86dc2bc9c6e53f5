package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"press/internal/core"
	"press/internal/geo"
	"press/internal/query"
	"press/internal/server"
	"press/internal/store"
	"press/internal/stream"
	"press/internal/traj"
	"press/internal/wire"
)

// This file turns a traced run into per-layer metrics, three ways (see
// README.md): spans the benchmark's wrappers recorded around handlers and
// direct layer calls, replays of the same work against each layer's public
// functions, and counters the program already publishes.

// stopwatch collects durations of one kind of call.
type stopwatch struct{ ns []float64 }

func (s *stopwatch) time(f func()) {
	t0 := time.Now()
	f()
	s.ns = append(s.ns, float64(time.Since(t0)))
}

func (s *stopwatch) add(d time.Duration) { s.ns = append(s.ns, float64(d)) }

func (s *stopwatch) medianUs() float64 { return median(s.ns) / 1e3 }

func (s *stopwatch) total() float64 {
	var t float64
	for _, v := range s.ns {
		t += v
	}
	return t
}

// opDigest is one traced op as its spans describe it.
type opDigest struct {
	write      bool
	ns         float64 // client round trip (the op span)
	frontNs    float64 // the span that answered the client: router's, else the node's
	nodeNs     float64 // Σ node handler spans
	routerSelf float64 // router span minus the node spans inside it
	probes     float64
	probeNs    float64
	slowest    float64 // fleet range through the router: slowest node span ÷ router span
}

func (op *opDigest) direction() string {
	if op.write {
		return "write"
	}
	return "read"
}

// digestSpans groups spans by op and returns the ops in the order they ran
// plus every handler span's duration by endpoint.
func digestSpans(spans []*span) (ops []opDigest, handlerNs map[string]*stopwatch) {
	self := selfTimes(spans)
	handlerNs = map[string]*stopwatch{}
	index := map[int32]int{} // op id -> ops index
	for _, s := range spans {
		if s.Parent == -1 {
			index[s.Op] = len(ops)
			ops = append(ops, opDigest{write: strings.HasPrefix(s.Name, "op.write"), ns: float64(s.dur())})
		}
	}
	slowestNode := map[int32]float64{} // router span's op -> longest node span
	for i, s := range spans {
		k, ok := index[s.Op]
		if !ok {
			continue
		}
		op := &ops[k]
		op.probes += float64(s.Probes.Load())
		op.probeNs += float64(s.ProbeNs.Load())
		switch {
		case strings.HasPrefix(s.Name, "router."):
			op.frontNs += float64(s.dur())
			op.routerSelf += float64(self[i])
		case strings.HasPrefix(s.Name, "node."):
			ep := strings.TrimPrefix(s.Name, "node.")
			if handlerNs[ep] == nil {
				handlerNs[ep] = &stopwatch{}
			}
			handlerNs[ep].add(time.Duration(s.dur()))
			op.nodeNs += float64(s.dur())
			if s.Parent >= 0 && spans[s.Parent].Name == "router.range" {
				slowestNode[s.Op] = max(slowestNode[s.Op], float64(s.dur()))
			} else if s.Parent >= 0 && spans[s.Parent].Parent == -1 {
				op.frontNs += float64(s.dur()) // no router in front
			}
		}
	}
	for id, ns := range slowestNode {
		op := &ops[index[id]]
		op.slowest = ratio(ns, op.frontNs)
	}
	return ops, handlerNs
}

// spanMetrics sets every metric that comes from spans alone. plainMs are
// the round trips of the untraced blocks' ops, by direction.
func spanMetrics(res *result, spans []*span, plainMs map[string][]float64) (ops []opDigest) {
	ops, handlers := digestSpans(spans)
	for ep, sw := range handlers {
		switch ep {
		case "whereat", "whenat", "range", "mindistance", "ingest_wire":
			res.set("server.handler_us."+ep, sw.medianUs())
		}
	}
	type direction struct {
		n, probes  float64
		tracedMs   []float64
		routerSelf stopwatch
	}
	dirs := map[string]*direction{"write": {}, "read": {}}
	var transport stopwatch
	var slowest []float64
	var probes, probeNs float64
	for _, op := range ops {
		if op.frontNs > 0 {
			transport.add(time.Duration(op.ns - op.frontNs))
		}
		if op.slowest > 0 {
			slowest = append(slowest, op.slowest)
		}
		probes += op.probes
		probeNs += op.probeNs
		d := dirs[op.direction()]
		d.n++
		d.probes += op.probes
		d.tracedMs = append(d.tracedMs, op.ns/1e6)
		if op.routerSelf > 0 {
			d.routerSelf.add(time.Duration(op.routerSelf))
		}
	}
	res.set("server.transport_us", transport.medianUs())
	res.set("cluster.gather_slowest_share", median(slowest))
	res.set("spindex.probe_us", ratio(probeNs, probes)/1e3)
	for name, d := range dirs {
		plain := median(plainMs[name])
		res.set("cluster.router_self_us."+name, d.routerSelf.medianUs())
		res.set("spindex.probes_per_"+name+"_op", ratio(d.probes, d.n))
		res.set("trace.overhead_share."+name, ratio(median(d.tracedMs)-plain, plain))
	}
	return ops
}

// systemMetrics sets what the booted system itself reports.
func systemMetrics(res *result, sys *system, genS float64) {
	uh, um, _ := sys.hier.UnpackCacheStats()
	res.set("spindex.build_s", sys.buildS)
	res.set("spindex.open_s", sys.openS)
	res.set("spindex.mem_mb", float64(sys.hier.MemoryBytes()+sys.hier.MappedBytes())/(1<<20))
	res.set("spindex.unpack_hit_ratio", ratio(float64(uh), float64(uh+um)))
	res.set("spindex.cached_rows", float64(sys.hier.CachedRows()))
	res.set("gen.inputs_s", genS)
}

// sampleEvery picks about n of count indexes, evenly spaced.
func sampleEvery(count, n int) []int {
	if count <= n {
		n = count
	}
	out := make([]int, n)
	for k := range out {
		out[k] = k * count / n
	}
	return out
}

// replayRecords measures the layers every workload crosses on its read
// path, on records the run stored: store get and stat, marshal and
// unmarshal, full decompression, and the engine's four queries on a decoded
// *Compressed. truth gives, per sampled id, the uncompressed trajectory the
// query arguments are drawn from.
func replayRecords(res *result, sys *system, st func(id uint64) *store.ShardedStore, ids []uint64, truth func(k int) (*traj.Trajectory, float64, []whenPoint)) {
	var get, stat, marshal, unmarshal, decompress, whereat, whenat, rng, mindist stopwatch
	var prev *core.Compressed
	for k, id := range ids {
		s := st(id)
		var ct *core.Compressed
		var err error
		get.time(func() { ct, _, err = s.GetRecord(id) })
		if err != nil {
			continue
		}
		stat.time(func() { _, _, _ = s.StatRecord(id) })
		var blob []byte
		marshal.time(func() { blob = ct.Marshal() })
		unmarshal.time(func() { _, _ = core.UnmarshalCompressed(blob) })
		decompress.time(func() { _, _ = sys.comp.Decompress(ct) })
		tr, shift, pts := truth(k)
		mid := shift + tr.Temporal[0].T + tr.Temporal.Duration()/2
		whereat.time(func() { _, _ = sys.eng.WhereAt(ct, mid) })
		if len(pts) > 0 {
			whenat.time(func() { _, _ = sys.eng.WhenAt(ct, pts[len(pts)/2].p) })
		}
		c := query.WhereAtRaw(sys.g, tr, mid-shift)
		box := geo.NewMBR(geo.Point{X: c.X - batchRangeHalfM, Y: c.Y - batchRangeHalfM}, geo.Point{X: c.X + batchRangeHalfM, Y: c.Y + batchRangeHalfM})
		rng.time(func() { _, _ = sys.eng.Range(ct, mid-batchRangeHalfS, mid+batchRangeHalfS, box) })
		if prev != nil {
			mindist.time(func() { _, _ = sys.eng.MinDistance(prev, ct) })
		}
		prev = ct
	}
	res.set("store.get_us", get.medianUs())
	res.set("store.stat_us", stat.medianUs())
	res.set("core.marshal_us", marshal.medianUs())
	res.set("core.unmarshal_us", unmarshal.medianUs())
	res.set("core.decompress_us", decompress.medianUs())
	res.set("query.engine_whereat_us", whereat.medianUs())
	res.set("query.engine_whenat_us", whenat.medianUs())
	res.set("query.engine_range_us", rng.medianUs())
	res.set("query.engine_mindistance_us", mindist.medianUs())
}

// replayBatchCodec measures the batch compressor's three stages on
// matched trajectories: SP compression, FST/Huffman encoding (HSC minus
// its SP stage) and BTC.
func replayBatchCodec(res *result, sys *system, trajs []*traj.Trajectory) {
	var spc, spcWarm, hsc, btc stopwatch
	h := sys.comp.HSC()
	for _, tr := range trajs {
		// SP compression first, as the pipeline meets it; then HSC and SP
		// compression again with the shortest-path caches equally warm, so
		// that their difference is the FST/Huffman stage alone.
		spc.time(func() { _ = core.SPCompress(sys.sp, tr.Path) })
		hsc.time(func() { _, _ = h.Compress(tr.Path) })
		spcWarm.time(func() { _ = core.SPCompress(sys.sp, tr.Path) })
		btc.time(func() { _ = core.BTC(tr.Temporal, tauMeters, etaSeconds) })
	}
	res.set("core.sp_compress_us", spc.medianUs())
	res.set("core.fst_encode_us", max(0, hsc.medianUs()-spcWarm.medianUs()))
	res.set("core.btc_us", btc.medianUs())
}

// replayOnlineCodec measures the online compressor alone — no session
// lock, no sink — on the trips the fleet is made of.
func replayOnlineCodec(res *result, sys *system, trips []trip) error {
	oc, err := core.NewOnlineCompressor(sys.comp)
	if err != nil {
		return err
	}
	var push, flush stopwatch
	points := 0
	for i := range trips {
		obs := trips[i].obs
		push.time(func() {
			for _, o := range obs {
				if o.HasSample {
					oc.PushSample(o.Sample)
				} else {
					oc.PushEdge(o.Edge)
				}
			}
		})
		points += len(obs)
		flush.time(func() { _, err = oc.Flush() })
		if err != nil {
			return err
		}
	}
	res.set("core.online_push_ns_per_point", ratio(push.total(), float64(points)))
	res.set("core.online_flush_us", flush.medianUs())
	return nil
}

// captureSink is the null stream.Sink of the frame replay: it keeps the
// record a flush produced so the store append can be timed on its own.
type captureSink struct{ last *core.Compressed }

func (c *captureSink) Append(_ uint64, ct *core.Compressed) error { c.last = ct; return nil }

// replayFrames feeds frames [0, upto) through wire decode, a session
// manager over a null sink and a scratch store, in the order the server saw
// them, timing each layer; sessions opened by earlier frames are live when
// later ones arrive, as on the server. Only the frames that were traced
// are reported. It returns the layer time explained per reported frame.
func (r *httpRun) replayFrames(res *result, sys *system, dir string, upto int) ([]float64, error) {
	st, err := store.CreateSharded(filepath.Join(dir, "replay"), storeShards)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	sink := &captureSink{}
	mgr, err := stream.NewManager(context.Background(), sys.comp, sink, stream.Options{})
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	var enc wire.Encoder
	rd := wire.NewReader(nil, 0)
	var obs []stream.Obs
	var decode, push, flush, appendSW, split stopwatch
	var points, bytesSent float64
	explained := make([]float64, 0, upto/2)
	for fi := 0; fi < upto; fi++ {
		fr := &r.liveFrames[fi]
		enc.Reset()
		for _, p := range fr.parts {
			r.in.encodeSession(&enc, r.f.sessions[p.sess], int(p.lo), int(p.hi), p.flush)
		}
		body := enc.Finish()
		rd.Reset(bytes.NewReader(body))
		var dNs, pNs, fNs, aNs time.Duration
		t0 := time.Now()
		frame, err := rd.Next()
		if err != nil {
			return nil, err
		}
		dNs += time.Since(t0)
		if r.clustered && traced(fi) {
			split.time(func() {
				_, err = frame.SplitByOwner(clusterNodes, func(id uint64) int { return store.ShardOf(id, clusterNodes) })
			})
			if err != nil {
				return nil, err
			}
		}
		it := frame.Groups()
		for {
			t0 = time.Now()
			if !it.Next() {
				break
			}
			obs = obs[:0]
			var o wire.Obs
			for it.Point(&o) {
				obs = append(obs, stream.Obs{Edge: o.Edge, Sample: o.Sample, HasSample: o.HasSample})
			}
			dNs += time.Since(t0)
			t0 = time.Now()
			if _, err := mgr.PushBatch(it.ID(), obs); err != nil {
				return nil, err
			}
			pNs += time.Since(t0)
			if it.Flush() {
				t0 = time.Now()
				if err := mgr.Flush(it.ID()); err != nil {
					return nil, err
				}
				d := time.Since(t0)
				fNs += d
				t0 = time.Now()
				if err := st.Append(it.ID(), sink.last); err != nil {
					return nil, err
				}
				a := time.Since(t0)
				aNs += a
				if traced(fi) {
					flush.add(d)
					appendSW.add(a)
				}
			}
		}
		if err := it.Err(); err != nil {
			return nil, err
		}
		if traced(fi) {
			decode.add(dNs)
			push.add(pNs)
			points += float64(fr.points)
			bytesSent += float64(len(body))
			explained = append(explained, float64(dNs+pNs+fNs+aNs))
		}
	}
	res.set("wire.decode_ns_per_point", ratio(decode.total(), points))
	res.set("wire.bytes_per_point", ratio(bytesSent, points))
	res.set("wire.split_us_per_frame", split.medianUs())
	res.set("stream.push_ns_per_point", ratio(push.total(), points))
	res.set("stream.flush_us", flush.medianUs())
	res.set("store.append_us", appendSW.medianUs())
	return explained, nil
}

// replayReads answers the traced reads again directly through a View (with
// a cache of the server's size) and an incremental index per node — the
// query layer without HTTP, routing or JSON. It returns the layer time
// explained per read.
func (r *httpRun) replayReads(res *result, dep *deployment, reads []readOp) ([]float64, error) {
	views := make([]*query.View, len(dep.nodes))
	indexes := make([]*query.IncrementalFleetIndex, len(dep.nodes))
	for k, n := range dep.nodes {
		v, err := query.NewView(dep.sys.eng, n.st, query.NewCache(r.cacheSize()))
		if err != nil {
			return nil, err
		}
		if indexes[k], err = query.NewIncrementalFleetIndex(v, 0); err != nil {
			return nil, err
		}
		if err := indexes[k].RefreshFromStore(n.st); err != nil {
			return nil, err
		}
		views[k] = v
	}
	owner := func(id uint64) int { return store.ShardOf(id, len(dep.nodes)) }
	var prune stopwatch
	explained := make([]float64, len(reads))
	for i := range reads {
		op := &reads[i]
		t0 := time.Now()
		var err error
		switch op.kind {
		case kWhereAt:
			id := r.f.sessions[op.a].id
			_, err = views[owner(id)].WhereAt(id, op.t)
		case kWhenAt:
			s := r.f.sessions[op.a]
			_, err = views[owner(s.id)].WhenAt(s.id, r.in.trips[s.trip].whenPts[op.pt].p)
		case kMinDist:
			a, b := r.f.sessions[op.a].id, r.f.sessions[op.b].id
			if owner(a) == owner(b) {
				_, err = views[owner(a)].MinDistance(a, b)
				break
			}
			// The router's record-shipping path: b's owner marshals the
			// record, a's owner unmarshals it and computes.
			var ct, other *core.Compressed
			if ct, _, err = dep.nodes[owner(b)].st.GetRecord(b); err == nil {
				if other, err = core.UnmarshalCompressed(ct.Marshal()); err == nil {
					_, err = views[owner(a)].MinDistanceWith(a, other)
				}
			}
		case kFleetRange:
			w := r.f.windows[op.a]
			for _, ix := range indexes {
				prune.time(func() { _, err = ix.RangeIDs(w.t1, w.t2, w.box) })
			}
		}
		if err != nil {
			return nil, fmt.Errorf("replaying read %d: %w", i, err)
		}
		explained[i] = float64(time.Since(t0))
	}
	res.set("query.index_prune_us", prune.medianUs())
	return explained, nil
}

// cacheSize is the byte budget of the servers' query cache.
func (r *httpRun) cacheSize() int {
	if r.cacheBytes != 0 {
		return r.cacheBytes
	}
	return server.DefaultQueryCacheBytes
}

// replayView prices the view's two extremes on a sample of stored
// vehicles: an identical repeated request with the cache on (what the result
// memo and the decoded LRU make of it) and the same request with caching off.
func (r *httpRun) replayView(res *result, dep *deployment, sessions []int) error {
	var hit, miss stopwatch
	for _, k := range sessions {
		s := r.f.sessions[k]
		st := dep.nodes[store.ShardOf(s.id, len(dep.nodes))].st
		t := s.shift + r.in.trips[s.trip].duration()/2
		warm, err := query.NewView(dep.sys.eng, st, query.NewCache(r.cacheSize()))
		if err != nil {
			return err
		}
		cold, err := query.NewView(dep.sys.eng, st, nil)
		if err != nil {
			return err
		}
		if _, err := warm.WhereAt(s.id, t); err != nil {
			return err
		}
		hit.time(func() { _, _ = warm.WhereAt(s.id, t) })
		miss.time(func() { _, _ = cold.WhereAt(s.id, t) })
	}
	res.set("query.view_hit_us", hit.medianUs())
	res.set("query.view_miss_us", miss.medianUs())
	return nil
}

// statsMetrics sets the counters the nodes publish, as deltas over the
// read phases.
func statsMetrics(res *result, before, after nodeStats, reads, fleetReads int) {
	c0, c1 := before.Query.Cache, after.Query.Cache
	res.set("query.result_hit_ratio", ratio(float64(c1.ResultHits-c0.ResultHits), float64(c1.ResultHits-c0.ResultHits+c1.ResultMisses-c0.ResultMisses)))
	res.set("query.decoded_hit_ratio", ratio(float64(c1.Hits-c0.Hits), float64(c1.Hits-c0.Hits+c1.Misses-c0.Misses)))
	res.set("query.evictions", float64(c1.Evictions-c0.Evictions))
	res.set("query.decodes_per_read", ratio(float64(after.Query.Decodes-before.Query.Decodes), float64(reads)))
	i0, i1 := before.Index.Incremental, after.Index.Incremental
	verifies, hits := float64(i1.Verifies-i0.Verifies), float64(i1.Hits-i0.Hits)
	rejects, skipped := float64(i1.SummaryRejects-i0.SummaryRejects), float64(i1.BucketsSkipped-i0.BucketsSkipped)
	// The data-skipping waste ratio: entries the index looked at (rejected
	// by summary or verified by decode) per id it returned.
	res.set("query.examined_per_result", ratio(rejects+verifies, hits))
	res.set("query.summary_reject_share", ratio(rejects, rejects+verifies))
	// Every fleet read walks every bucket of every node.
	res.set("query.buckets_skipped_share", ratio(skipped, float64(fleetReads*i1.Buckets)))
}

// runTraced is the per-layer run of a served workload: one client, writes
// then reads, tracing on for every other block of ops (the untraced blocks
// are the baseline the overhead is taken against), then the replays.
func (r *httpRun) runTraced(root string, res *result) error {
	dep, err := r.deploy(root)
	if err != nil {
		return err
	}
	defer dep.close()
	if err := r.warm(dep.url); err != nil {
		return err
	}
	budget := time.Duration(r.seconds / 4 * float64(time.Second))
	before, err := fetchNodeStats(dep.nodes)
	if err != nil {
		return err
	}
	// One pass each way; tracing flips every traceBlock ops (tracer.block).
	pt := &phaseTimes{}
	nWritten := r.writePhase(pt, dep.url, r.liveFrames, 1, time.Now().Add(budget))
	if r.concurrent {
		deadline := time.Now().Add(budget)
		r.readOpen(pt, dep.url, func() bool { return time.Now().After(deadline) })
	} else {
		r.readClosed(pt, dep.url, 1, budget)
	}
	r.tr.on.Store(false)
	after, err := fetchNodeStats(dep.nodes)
	if err != nil {
		return err
	}
	plainMs := map[string][]float64{}
	var tracedReads []readOp
	for i, ms := range pt.writes.ms {
		if !traced(i) {
			plainMs["write"] = append(plainMs["write"], ms)
		}
	}
	for i := range pt.ops { // round trips, not the open loop's due-time latencies
		if traced(i) {
			tracedReads = append(tracedReads, pt.ops[i])
		} else {
			plainMs["read"] = append(plainMs["read"], pt.ops[i].ms)
		}
	}
	allReads := pt.ops
	r.verify(newOracle(r.f), allReads)

	ops := spanMetrics(res, r.tr.snapshot(), plainMs)
	systemMetrics(res, dep.sys, r.in.genS)
	fleetReads, partials := 0, 0
	for i := range allReads {
		if allReads[i].kind == kFleetRange {
			fleetReads++
		}
		if allReads[i].status == http.StatusPartialContent {
			partials++
		}
	}
	statsMetrics(res, before, after, len(allReads), fleetReads)
	res.set("gen.late_p99_ms", percentile(pt.lateMs, 0.99))
	res.set("store.write_amp", ratio(float64(storedBytes(dep.nodes...)), float64(r.compressedBytes.Load())))
	if r.clustered {
		retries, err := routerRetries(dep.url)
		if err != nil {
			return err
		}
		res.set("cluster.retries", retries)
		res.set("cluster.partials", float64(partials))
	}

	// Replays: the same frames and the same reads against the layers.
	frameNs, err := r.replayFrames(res, dep.sys, dep.dir, nWritten)
	if err != nil {
		return err
	}
	readNs, err := r.replayReads(res, dep, tracedReads)
	if err != nil {
		return err
	}
	var writes, reads []opDigest
	for _, op := range ops {
		if op.write {
			writes = append(writes, op)
		} else {
			reads = append(reads, op)
		}
	}
	for name, part := range map[string]struct {
		ops       []opDigest
		explained []float64
	}{"write": {writes, frameNs}, "read": {reads, readNs}} {
		var selfNs []float64
		var opNs, layerNs float64
		for i := 0; i < min(len(part.ops), len(part.explained)); i++ {
			selfNs = append(selfNs, max(0, part.ops[i].nodeNs-part.explained[i]))
			opNs += part.ops[i].ns
			layerNs += part.explained[i]
		}
		res.set("server.self_us."+name, median(selfNs)/1e3)
		res.set("trace.cover_share."+name, ratio(layerNs, opNs))
	}

	stored := r.current(200)
	ids := make([]uint64, len(stored))
	for k, s := range stored {
		ids[k] = r.f.sessions[s].id
	}
	replayRecords(res, dep.sys,
		func(id uint64) *store.ShardedStore { return dep.nodes[store.ShardOf(id, len(dep.nodes))].st }, ids,
		func(k int) (*traj.Trajectory, float64, []whenPoint) {
			s := r.f.sessions[stored[k]]
			return r.in.trips[s.trip].truth, s.shift, r.in.trips[s.trip].whenPts
		})
	if err := replayOnlineCodec(res, dep.sys, r.in.trips[:min(300, len(r.in.trips))]); err != nil {
		return err
	}
	if err := r.replayView(res, dep, stored); err != nil {
		return err
	}
	res.Attempted = nWritten + len(allReads)
	res.Failed = r.count()
	res.samples["write"], res.samples["read"] = len(writes), len(reads)
	return nil
}

// routerRetries sums the router's per-node retry counters.
func routerRetries(url string) (float64, error) {
	c := newHTTPConn(url)
	defer c.close()
	status, body := c.get([]byte("/v1/stats"))
	if status != http.StatusOK {
		return 0, fmt.Errorf("router /v1/stats: HTTP %d", status)
	}
	var s struct {
		Nodes []struct {
			Retries uint64 `json:"retries"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(body, &s); err != nil {
		return 0, err
	}
	var n float64
	for _, nd := range s.Nodes {
		n += float64(nd.Retries)
	}
	return n, nil
}
