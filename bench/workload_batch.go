package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"press/internal/core"
	"press/internal/geo"
	"press/internal/pipeline"
	"press/internal/query"
	"press/internal/roadnet"
	"press/internal/store"
	"press/internal/traj"
)

// batchGPS is the paper's pipeline in process: noisy GPS in, matched,
// re-formatted, HSC/BTC-compressed, marshalled and appended; then stored
// records read back, decompressed and queried on the *Compressed directly —
// no server, no view, no cache.
type batchGPS struct {
	seed    int64
	seconds float64
	tr      *tracer
	in      *inputs

	failures
}

func newBatchGPS(seed int64, seconds float64, tr *tracer) (*batchGPS, error) {
	n := int(math.Ceil(batchTrajPerSec * batchWriteShare * seconds))
	in, err := generate(seed, n, true)
	if err != nil {
		return nil, err
	}
	return &batchGPS{seed: seed, seconds: seconds, tr: tr, in: in}, nil
}

// batchDeployment is the booted system plus an empty store.
type batchDeployment struct {
	sys *system
	st  *store.ShardedStore
	dir string
}

func (d *batchDeployment) close() error {
	return errors.Join(d.st.Close(), d.sys.close(), os.RemoveAll(d.dir))
}

func (b *batchGPS) deploy(root string) (*batchDeployment, error) {
	dir, err := os.MkdirTemp(root, "deploy")
	if err != nil {
		return nil, err
	}
	sys, err := bootSystem(b.in.g, b.in.training, dir, b.tr)
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	st, err := store.CreateSharded(filepath.Join(dir, "fleet"), storeShards)
	if err != nil {
		return nil, errors.Join(err, sys.close(), os.RemoveAll(dir))
	}
	return &batchDeployment{sys: sys, st: st, dir: dir}, nil
}

// stored is what the write phase leaves for the read phase and the oracle:
// the matched trajectory (the uncompressed truth of what was stored) and
// its unambiguous whenat points.
type stored struct {
	traj      *traj.Trajectory
	btc       traj.Temporal // the compressor's temporal output, before marshalling
	whenPts   []whenPoint
	compBytes int // Compressed.SizeBytes(), the paper's compressed size
}

// ingest is System.IngestGPSToShardedStore with a clock on it: the same
// pipeline (nproc workers, default buffers) drained by the same tails
// (min(shards, workers)) appending under the submission index, but each
// trajectory's submit and stored instants are kept, which the batch call
// does not expose.
func (b *batchGPS) ingest(d *batchDeployment, raws []traj.Raw, out []stored) (*timedOps, error) {
	workers := nproc()
	p, err := pipeline.New(context.Background(), d.sys.matcher, d.sys.comp, pipeline.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	submitted := make([]time.Time, len(raws))
	t := &timedOps{ms: make([]float64, len(raws)), at: make([]float64, len(raws))}
	t0 := time.Now()
	go func() {
		for i, raw := range raws {
			submitted[i] = time.Now()
			if _, err := p.Submit(context.Background(), raw); err != nil {
				break
			}
		}
		p.Close()
	}()
	var wg sync.WaitGroup
	for tail := 0; tail < min(d.st.Shards(), workers); tail++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for res := range p.Results() {
				err := res.Err
				if err == nil {
					err = d.st.Append(uint64(res.Seq), res.Compressed)
				}
				t.ms[res.Seq] = float64(time.Since(submitted[res.Seq])) / 1e6
				t.at[res.Seq] = submitted[res.Seq].Sub(t0).Seconds()
				if err != nil {
					b.add(fmt.Errorf("trajectory %d: %w", res.Seq, err))
					continue
				}
				out[res.Seq] = stored{
					traj: res.Traj, btc: res.Compressed.Temporal,
					whenPts: uniqueEdgeMidpoints(b.in.g, res.Traj.Path), compBytes: res.Compressed.SizeBytes(),
				}
			}
		}()
	}
	wg.Wait()
	t.endAt = time.Since(t0).Seconds()
	return t, nil
}

// batchRead is one read op's answer, small enough to keep for every op.
type batchRead struct {
	kind readKind
	rec  int32
	t    float64          // whereat instant, centre of the range window
	pt   int8             // whenat point
	x, y float64          // whereat point; whenat time in x
	hit  bool             // range
	path uint64           // decompress: hash of the returned path
	out  *traj.Trajectory // decompress: the whole answer, kept for each record's first decompress only
	err  error
}

// Range windows: 4 minutes around an instant of the trip, a 300 m box
// near where the vehicle was then, so hits and misses both occur.
const (
	batchRangeHalfS = 120.0
	batchRangeHalfM = 150.0
)

func (b *batchGPS) rangeBox(recs []stored, op *batchRead, i int) geo.MBR {
	c := query.WhereAtRaw(b.in.g, recs[op.rec].traj, op.t)
	c.X += (u01(b.seed, i, 2) - 0.5) * 4 * batchRangeHalfM
	c.Y += (u01(b.seed, i, 3) - 0.5) * 4 * batchRangeHalfM
	return geo.NewMBR(geo.Point{X: c.X - batchRangeHalfM, Y: c.Y - batchRangeHalfM}, geo.Point{X: c.X + batchRangeHalfM, Y: c.Y + batchRangeHalfM})
}

// plan fills op i's parameters: records in turn, the four kinds in turn on
// each.
func (b *batchGPS) plan(recs []stored, i int, op *batchRead) {
	op.rec = int32((i / 4) % len(recs))
	rec := recs[op.rec]
	ts := rec.traj.Temporal
	op.t = ts[0].T + u01(b.seed, i, 0)*ts.Duration()
	switch op.kind = [4]readKind{kDecompress, kWhereAt, kWhenAt, kRange}[i%4]; {
	case op.kind == kWhenAt && len(rec.whenPts) == 0:
		op.kind = kWhereAt
	case op.kind == kWhenAt:
		op.pt = int8(u01(b.seed, i, 1) * float64(len(rec.whenPts)))
	}
}

// read performs op: fetch the stored record, then one call on it.
func (b *batchGPS) read(d *batchDeployment, recs []stored, i int, op *batchRead) {
	tr := b.tr
	if tr != nil && !tr.block(i) {
		tr = nil
	}
	var opSpan, sp int32
	if tr != nil {
		opSpan = tr.beginOp("op.read." + kindName[op.kind])
		defer tr.endOp(opSpan)
		sp = tr.begin("store.get", opSpan)
	}
	ct, err := d.st.Get(uint64(op.rec))
	if tr != nil {
		tr.end(sp)
	}
	if err != nil {
		op.err = err
		return
	}
	if tr != nil {
		sp = tr.begin("query."+kindName[op.kind], opSpan)
		defer tr.end(sp)
	}
	switch op.kind {
	case kDecompress:
		var out *traj.Trajectory
		if out, op.err = d.sys.comp.Decompress(ct); op.err == nil {
			op.path = hashPath(out.Path)
			if i < 4*len(recs) { // first pass over the records: bounded by their number, not by read speed
				op.out = out
			}
		}
	case kWhereAt:
		var p geo.Point
		p, op.err = d.sys.eng.WhereAt(ct, op.t)
		op.x, op.y = p.X, p.Y
	case kWhenAt:
		op.x, op.err = d.sys.eng.WhenAt(ct, recs[op.rec].whenPts[op.pt].p)
	case kRange:
		op.hit, op.err = d.sys.eng.Range(ct, op.t-batchRangeHalfS, op.t+batchRangeHalfS, b.rangeBox(recs, op, i))
	}
}

// hashPath is FNV-1a over the edge ids: what a decompress op keeps of its
// answer when keeping the answer itself would let memory grow with speed.
func hashPath(p traj.Path) uint64 {
	h := uint64(14695981039346656037)
	for _, e := range p {
		h = (h ^ uint64(uint32(e))) * 1099511628211
	}
	return h
}

// checkRecord is the per-record half of the oracle, on a decompressed
// stored record: the path must be exactly the matched path; the
// compressor's temporal output must be within the configured TSND and NSTD
// of the matched one (the paper's guarantee, checked exactly as the codec's
// own tests do); and the stored tuples must be that output up to the record
// format's float32. NSTD is not taken on the stored tuples themselves:
// arrival time jumps where a vehicle stood still, so a float32 nudge of a
// distance moves it by the length of the stop.
func checkRecord(id int, rec stored, out *traj.Trajectory) error {
	if !out.Path.Equal(rec.traj.Path) {
		return fmt.Errorf("record %d: decompressed path differs from the matched path", id)
	}
	if v := core.TSND(rec.traj.Temporal, rec.btc); v > tauMeters+1e-6 {
		return fmt.Errorf("record %d: TSND %.1f m exceeds %v", id, v, tauMeters)
	}
	if v := core.NSTD(rec.traj.Temporal, rec.btc); v > etaSeconds+1e-6 {
		return fmt.Errorf("record %d: NSTD %.1f s exceeds %v", id, v, etaSeconds)
	}
	if len(out.Temporal) != len(rec.btc) {
		return fmt.Errorf("record %d: %d tuples stored, %d compressed", id, len(out.Temporal), len(rec.btc))
	}
	for k, e := range out.Temporal {
		if math.Abs(e.D-rec.btc[k].D) > slackMeters || math.Abs(e.T-rec.btc[k].T) > slackSeconds {
			return fmt.Errorf("record %d: stored tuple %d is %v, compressed %v", id, k, e, rec.btc[k])
		}
	}
	return nil
}

// checkRead is the per-answer half: queries against the matched
// trajectory, spatial parts exact, temporal parts within the BTC bounds.
func (b *batchGPS) checkRead(recs []stored, i int, op *batchRead) error {
	if op.err != nil {
		return op.err
	}
	rec := recs[op.rec]
	matched := placed{id: uint64(op.rec), truth: rec.traj}
	switch op.kind {
	case kDecompress:
		if op.path != hashPath(rec.traj.Path) {
			return fmt.Errorf("record %d: decompressed path differs from the matched path", op.rec)
		}
	case kWhereAt:
		return matched.checkWhereAt(b.in.g, op.t, geo.Point{X: op.x, Y: op.y})
	case kWhenAt:
		return matched.checkWhenAt(b.in.g, rec.whenPts[op.pt], op.x)
	case kRange:
		box := b.rangeBox(recs, op, i)
		t1, t2 := op.t-batchRangeHalfS, op.t+batchRangeHalfS
		grown, shrunk := box.Expand(tauMeters+slackMeters), box.Expand(-(tauMeters + slackMeters))
		if op.hit && !query.RangeRaw(b.in.g, rec.traj, t1, t2, grown) {
			return fmt.Errorf("record %d: range reports a hit the truth rules out", op.rec)
		}
		if !op.hit && !shrunk.IsEmpty() && query.RangeRaw(b.in.g, rec.traj, t1, t2, shrunk) {
			return fmt.Errorf("record %d: range misses a crossing the truth requires", op.rec)
		}
	}
	return nil
}

// verify runs both halves of the oracle over everything the run produced.
// Every record is checked once in full: on the answer its first decompress
// op returned, or, if the read phase never reached it, by decompressing it
// now.
func (b *batchGPS) verify(d *batchDeployment, recs []stored, reads []batchRead) {
	checked := make([]bool, len(recs))
	for i := range reads {
		op := &reads[i]
		if err := b.checkRead(recs, i, op); err != nil {
			b.add(fmt.Errorf("read %d (%s): %w", i, kindName[op.kind], err))
		}
		if op.out != nil && !checked[op.rec] {
			checked[op.rec] = true
			b.add(checkRecord(int(op.rec), recs[op.rec], op.out))
		}
	}
	for id, rec := range recs {
		if checked[id] || rec.traj == nil { // a nil trajectory: the write already counted as failed
			continue
		}
		ct, err := d.st.Get(uint64(id))
		if err == nil {
			var out *traj.Trajectory
			if out, err = d.sys.comp.Decompress(ct); err == nil {
				err = checkRecord(id, rec, out)
			}
		}
		b.add(err)
	}
}

func (b *batchGPS) raws() []traj.Raw {
	raws := make([]traj.Raw, len(b.in.trips))
	for i := range b.in.trips {
		raws[i] = b.in.trips[i].raw
	}
	return raws
}

func (b *batchGPS) run(res *result) error {
	root, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	if b.tr != nil {
		return b.runTraced(root, res)
	}
	var d *batchDeployment
	setups := make([]float64, 0, setupRepeats)
	for k := 0; k < setupRepeats; k++ {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if d, err = b.deploy(root); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.close()

	raws := b.raws()
	recs := make([]stored, len(raws))
	writes, err := b.ingest(d, raws, recs)
	if err != nil {
		return err
	}
	if b.count() > 0 {
		return fmt.Errorf("write phase failed: %v", b.failed())
	}
	ops := make([]batchRead, maxClosedReads)
	deadline := time.Now().Add(time.Duration((1 - batchWriteShare) * b.seconds * float64(time.Second)))
	reads := timedClosedLoop(nproc(), maxClosedReads, deadline, func(_, i int) {
		b.plan(recs, i, &ops[i])
		b.read(d, recs, i, &ops[i])
	})
	ops = ops[:len(reads.ms)]
	stored := d.st.SizeBytes()
	b.verify(d, recs, ops)

	points, rawBytes, compBytes := 0, 0, 0
	for i, rec := range recs {
		points += len(raws[i])
		rawBytes += rec.traj.SizeBytes()
		compBytes += rec.compBytes
	}
	writes, firstTraj := writes.steady()
	reads, _ = reads.steady()
	res.Attempted = len(raws) + len(ops)
	res.Failed = b.count()
	res.samples["write"], res.samples["read"] = len(writes.ms), len(reads.ms)
	res.set("setup_s", median(setups))
	res.set("write_points_per_s", writes.rate(func(i int) float64 { return float64(len(raws[firstTraj+i])) }))
	res.set("write_p50_ms", writes.p50())
	res.set("write_p99_ms", writes.p99())
	res.set("read_ops_per_s", reads.rate(func(int) float64 { return 1 }))
	res.set("read_p50_ms", reads.p50())
	res.set("read_p99_ms", reads.p99())
	res.set("compression_ratio", float64(rawBytes)/float64(compBytes))
	res.set("stored_bytes_per_point", float64(stored)/float64(points))
	res.set("peak_rss_mb", peakRSSMiB())
	res.sizes["write_trajectories"] = float64(len(raws))
	res.sizes["write_points"] = float64(points)
	res.sizes["stored_bytes"] = float64(stored)
	res.sizes["inputs_s"] = b.in.genS
	return nil
}

// writeDirect is one write op of the traced run: the pipeline's three
// stages called directly, in order, on this goroutine, each under its own
// span when tracing is on. It returns the op's wall time in ms.
func (b *batchGPS) writeDirect(d *batchDeployment, i int, raw traj.Raw, out *stored) float64 {
	tr := b.tr
	if !tr.block(i) {
		tr = nil
	}
	var op int32
	stage := func(name string, f func()) {
		if tr == nil {
			f()
			return
		}
		sp := tr.begin(name, op)
		f()
		tr.end(sp)
	}
	t0 := time.Now()
	if tr != nil {
		op = tr.beginOp("op.write")
		defer tr.endOp(op)
	}
	var matched *traj.Trajectory
	var ct *core.Compressed
	var err error
	stage("mapmatch.match", func() { matched, err = d.sys.matcher.MatchAndReformat(raw) })
	if err == nil {
		stage("core.compress", func() { ct, err = d.sys.comp.Compress(matched) })
	}
	if err == nil {
		stage("store.append", func() { err = d.st.Append(uint64(i), ct) })
	}
	if err != nil {
		b.add(fmt.Errorf("trajectory %d: %w", i, err))
		return float64(time.Since(t0)) / 1e6
	}
	*out = stored{traj: matched, btc: ct.Temporal, whenPts: uniqueEdgeMidpoints(b.in.g, matched.Path), compBytes: ct.SizeBytes()}
	return float64(time.Since(t0)) / 1e6
}

// runTraced is the per-layer run: one goroutine, writes then reads, every
// other block of ops under spans, then the replays.
func (b *batchGPS) runTraced(root string, res *result) error {
	d, err := b.deploy(root)
	if err != nil {
		return err
	}
	defer d.close()
	raws := b.raws()
	recs := make([]stored, len(raws))
	budget := time.Duration(b.seconds / 4 * float64(time.Second))
	// One pass each way on this goroutine; tracing flips every traceBlock
	// ops (tracer.block), so plain and traced ops alternate.
	written := 0
	plainMs := map[string][]float64{}
	for deadline := time.Now().Add(budget); written < len(raws) && time.Now().Before(deadline); written++ {
		if ms := b.writeDirect(d, written, raws[written], &recs[written]); !traced(written) {
			plainMs["write"] = append(plainMs["write"], ms)
		}
	}
	if b.count() > 0 {
		return fmt.Errorf("write phase failed: %v", b.failed())
	}
	var reads []batchRead
	for deadline := time.Now().Add(budget); time.Now().Before(deadline); {
		i := len(reads)
		reads = append(reads, batchRead{})
		b.plan(recs[:written], i, &reads[i])
		t0 := time.Now()
		b.read(d, recs[:written], i, &reads[i])
		if !traced(i) {
			plainMs["read"] = append(plainMs["read"], float64(time.Since(t0))/1e6)
		}
	}
	b.tr.on.Store(false)
	recs = recs[:written]
	b.verify(d, recs, reads)

	spans := b.tr.snapshot()
	ops := spanMetrics(res, spans, plainMs)
	systemMetrics(res, d.sys, b.in.genS)

	// Every child span here is a direct call into a layer, so what the
	// children cover of each op is the share the breakdown explains.
	var match, appendSW stopwatch
	opNs, childNs := map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		switch {
		case s.Parent == -1:
			continue
		case s.Name == "mapmatch.match":
			match.add(time.Duration(s.dur()))
		case s.Name == "store.append":
			appendSW.add(time.Duration(s.dur()))
		}
		childNs[strings.SplitN(spans[s.Parent].Name, ".", 3)[1]] += float64(s.dur()) // "op.write", "op.read.<kind>"
	}
	for _, op := range ops {
		opNs[op.direction()] += op.ns
	}
	res.set("trace.cover_share.read", ratio(childNs["read"], opNs["read"]))
	res.set("trace.cover_share.write", ratio(childNs["write"], opNs["write"]))
	points, stored, compBytes := 0, d.st.SizeBytes(), 0
	var truthEdges, recalled float64
	for i, rec := range recs {
		if traced(i) {
			points += len(raws[i])
		}
		compBytes += rec.compBytes
		on := make(map[roadnet.EdgeID]bool, len(rec.traj.Path))
		for _, e := range rec.traj.Path {
			on[e] = true
		}
		for _, e := range b.in.trips[i].truth.Path {
			truthEdges++
			if on[e] {
				recalled++
			}
		}
	}
	res.set("mapmatch.match_us_per_point", ratio(match.total(), float64(points))/1e3)
	res.set("mapmatch.edge_recall", ratio(recalled, truthEdges)) // driven edges the matched path contains
	res.set("store.append_us", appendSW.medianUs())
	res.set("store.write_amp", ratio(float64(stored), float64(compBytes)))

	sample := sampleEvery(written, 200)
	trajs := make([]*traj.Trajectory, len(sample))
	ids := make([]uint64, len(sample))
	for k, i := range sample {
		trajs[k], ids[k] = recs[i].traj, uint64(i)
	}
	replayBatchCodec(res, d.sys, trajs)
	replayRecords(res, d.sys, func(uint64) *store.ShardedStore { return d.st }, ids,
		func(k int) (*traj.Trajectory, float64, []whenPoint) { return trajs[k], 0, recs[sample[k]].whenPts })

	// The single-threaded baseline and the pipeline's gain over it.
	batch := raws[:min(len(raws), 160)]
	rate := func(workers int) (float64, error) {
		t0 := time.Now()
		if _, err := pipeline.Run(d.sys.matcher, d.sys.comp, batch, pipeline.Options{Workers: workers}); err != nil {
			return 0, err
		}
		return float64(len(batch)) / time.Since(t0).Seconds(), nil
	}
	one, err := rate(1)
	if err != nil {
		return err
	}
	all, err := rate(nproc())
	if err != nil {
		return err
	}
	res.set("pipeline.traj_per_s_1w", one)
	res.set("pipeline.speedup_nproc", ratio(all, one))

	res.Attempted = written + len(reads)
	res.Failed = b.count()
	res.samples["write"], res.samples["read"] = written, len(reads)
	return nil
}
