package core

import (
	"errors"
	"math"

	"press/internal/geo"
	"press/internal/roadnet"
	"press/internal/spindex"
	"press/internal/traj"
)

// The paper notes (§7.2) that "the compression procedure scans the spatial
// path and temporal sequence from head to tail without tracing back. This
// means PRESS can be adapted to online compression." OnlineSP and OnlineBTC
// are those adaptations: both consume one element at a time and emit
// retained elements as soon as they are final. OnlineBTC does O(1) work per
// tuple. OnlineSP asks each SPend question of one search per anchor
// (SP.From), resumed across the anchor's run; Park releases that search and
// the next Push reopens it from the anchor, so a stream parked between
// frames pays one search per frame, not one per edge.

// OnlineSP is the streaming form of Algorithm 1: push edges as the vehicle
// traverses them; retained edges are emitted as soon as the shortest-path
// window breaks. Flush emits the final edge.
type OnlineSP struct {
	sp     spindex.SP
	search spindex.Search // open search from anchor; nil when parked
	anchor roadnet.EdgeID
	prev   roadnet.EdgeID
	n      int
	emit   func(roadnet.EdgeID)
}

// NewOnlineSP creates a streaming SP compressor; emit receives each
// retained edge in order.
func NewOnlineSP(sp spindex.SP, emit func(roadnet.EdgeID)) *OnlineSP {
	return &OnlineSP{sp: sp, anchor: roadnet.NoEdge, prev: roadnet.NoEdge, emit: emit}
}

// Push feeds the next traversed edge.
func (o *OnlineSP) Push(e roadnet.EdgeID) {
	o.n++
	switch o.n {
	case 1:
		o.emit(e)
		o.anchor = e
	case 2:
		o.prev = e
	default:
		if o.search == nil {
			o.search = o.sp.From(o.anchor)
		}
		if o.search.SPEnd(e) != o.prev {
			o.emit(o.prev)
			o.anchor = o.prev
			o.Park()
		}
		o.prev = e
	}
}

// Park releases the open search, if any; the next Push reopens it from the
// anchor. Output is the same wherever Park is called, so a caller holding
// many idle compressors parks each after its pushes and none keeps search
// scratch while idle.
func (o *OnlineSP) Park() {
	if o.search != nil {
		o.search.Close()
		o.search = nil
	}
}

// Flush emits the trailing edge and parks. The stream may continue
// afterwards only after a Reset.
func (o *OnlineSP) Flush() {
	o.Park()
	if o.n >= 2 {
		o.emit(o.prev)
	}
}

// Reset parks and prepares the compressor for a new trajectory.
func (o *OnlineSP) Reset() {
	o.Park()
	o.anchor, o.prev, o.n = roadnet.NoEdge, roadnet.NoEdge, 0
}

// OnlineBTC is the streaming form of Algorithm 3: push (d, t) tuples as
// they are sampled; retained tuples are emitted as soon as the angular
// range collapses. The same TSND/NSTD guarantees hold for the emitted
// sequence.
type OnlineBTC struct {
	tau, eta float64
	emit     func(traj.Entry)

	n       int
	anchor  traj.Entry
	prev    traj.Entry
	lo, hi  float64
	flatEnd float64
}

// NewOnlineBTC creates a streaming temporal compressor with the given
// bounds; emit receives each retained tuple in order.
func NewOnlineBTC(tau, eta float64, emit func(traj.Entry)) *OnlineBTC {
	o := &OnlineBTC{tau: tau, eta: eta, emit: emit}
	o.resetWindow(traj.Entry{})
	return o
}

func (o *OnlineBTC) resetWindow(anchor traj.Entry) {
	o.anchor = anchor
	o.lo, o.hi = 0, math.Inf(1)
	o.flatEnd = math.Inf(-1)
}

// Push feeds the next temporal tuple. Tuples must arrive with strictly
// increasing T and non-decreasing D.
func (o *OnlineBTC) Push(p traj.Entry) {
	o.n++
	if o.n == 1 {
		o.emit(p)
		o.resetWindow(p)
		o.prev = p
		return
	}
	const eps = 1e-9
	for {
		dt := p.T - o.anchor.T
		dd := p.D - o.anchor.D
		s := dd / dt
		ok := s >= o.lo-eps && s <= o.hi+eps
		if ok && dd > 0 && !math.IsInf(o.flatEnd, -1) && o.flatEnd-o.anchor.T > o.eta+eps {
			ok = false
		}
		if ok {
			o.shrink(p, dt, dd)
			o.prev = p
			return
		}
		// Retain prev, restart the window from it and re-evaluate p.
		o.emit(o.prev)
		o.resetWindow(o.prev)
	}
}

func (o *OnlineBTC) shrink(p traj.Entry, dt, dd float64) {
	if l1 := (dd - o.tau) / dt; l1 > o.lo {
		o.lo = l1
	}
	if h1 := (dd + o.tau) / dt; h1 < o.hi {
		o.hi = h1
	}
	if dd > 0 {
		if l2 := dd / (dt + o.eta); l2 > o.lo {
			o.lo = l2
		}
		if dt-o.eta > 0 {
			if h2 := dd / (dt - o.eta); h2 < o.hi {
				o.hi = h2
			}
		}
	} else if p.T > o.flatEnd {
		o.flatEnd = p.T
	}
}

// Flush emits the trailing tuple; call once at end of stream.
func (o *OnlineBTC) Flush() {
	if o.n >= 2 {
		o.emit(o.prev)
	}
}

// Reset prepares the compressor for a new trajectory.
func (o *OnlineBTC) Reset() {
	o.n = 0
	o.resetWindow(traj.Entry{})
}

// OnlineCompressor composes OnlineSP and OnlineBTC behind one push/flush
// API — the streaming counterpart of Compressor.Compress. Push edges as the
// vehicle enters them (PushEdge) and (d, t) tuples as fixes arrive
// (PushSample); Flush finalizes both streams, runs the retained spatial
// path through the FST codebook and returns a Compressed record that is
// byte-identical to what the batch Compressor.Compress produces for the
// same trajectory.
//
// Memory while streaming is proportional to the *retained* (compressed)
// elements, not the raw input: OnlineSP and OnlineBTC decide each element
// the moment its window closes, and only the survivors are buffered for
// the FST stage. The FST Huffman coding itself runs at Flush — the greedy
// decomposition of Algorithm 2 unwinds the matched-state stack backward,
// so it needs the full retained sequence; encoding the (much smaller)
// retained path once at end of stream is the honest online adaptation of
// §7.2.
//
// An OnlineCompressor is not safe for concurrent use; give each live
// vehicle its own (see internal/stream for the session layer that does).
type OnlineCompressor struct {
	c       *Compressor
	sp      *OnlineSP
	btc     *OnlineBTC
	path    traj.Path     // retained SP-compressed edges
	temp    traj.Temporal // retained temporal tuples
	mbr     geo.MBR       // union of raw-edge MBRs, for the BoundingSummary
	edges   int           // raw edges pushed since the last Reset/Flush
	samples int           // raw tuples pushed since the last Reset/Flush
}

// NewOnlineCompressor creates a streaming compressor sharing the batch
// compressor's static structures (SP table, codebook, temporal bounds).
func NewOnlineCompressor(c *Compressor) (*OnlineCompressor, error) {
	if c == nil {
		return nil, errors.New("core: nil compressor")
	}
	o := &OnlineCompressor{c: c, mbr: geo.EmptyMBR()}
	o.sp = NewOnlineSP(c.SP, func(e roadnet.EdgeID) { o.path = append(o.path, e) })
	o.btc = NewOnlineBTC(c.Tau, c.Eta, func(p traj.Entry) { o.temp = append(o.temp, p) })
	return o, nil
}

// PushEdge feeds the next traversed edge of the spatial path. The edge's
// geometry MBR is folded into the running bounding summary — raw edges,
// exactly the set the batch path summarizes, so the Flush summary matches
// Compressor.Compress bit for bit.
func (o *OnlineCompressor) PushEdge(e roadnet.EdgeID) {
	o.edges++
	// An out-of-range edge is tolerated here — it fails the FST encode at
	// Flush with a proper error — so it must not blow up the MBR fold.
	if i := int(e); i >= 0 && i < o.c.Graph.NumEdges() {
		o.mbr.ExtendMBR(o.c.Graph.Edge(e).MBR())
	}
	o.sp.Push(e)
}

// PushSample feeds the next temporal (d, t) tuple. Tuples must arrive with
// strictly increasing T and non-decreasing D, as in the batch pipeline.
func (o *OnlineCompressor) PushSample(p traj.Entry) {
	o.samples++
	o.btc.Push(p)
}

// Edges returns the number of raw edges pushed since the last Reset/Flush.
func (o *OnlineCompressor) Edges() int { return o.edges }

// Samples returns the number of raw tuples pushed since the last
// Reset/Flush.
func (o *OnlineCompressor) Samples() int { return o.samples }

// Empty reports whether nothing has been pushed since the last Reset/Flush.
func (o *OnlineCompressor) Empty() bool { return o.edges == 0 && o.samples == 0 }

// MemoryBytes estimates the heap bytes this session retains while streaming:
// the backing arrays of the retained spatial path (4 bytes per edge) and
// temporal sequence (16 bytes per tuple). This is the quantity a per-session
// memory cap bounds — it grows with the *compressed* trajectory, so only a
// vehicle whose trip genuinely does not compress (or never ends) drives it
// up.
func (o *OnlineCompressor) MemoryBytes() int {
	return cap(o.path)*4 + cap(o.temp)*16
}

// Flush finalizes the trajectory: the trailing window elements are emitted,
// the retained spatial path is FST-encoded, and the compressor resets
// itself for the next trajectory. The returned record is byte-identical to
// batch Compressor.Compress on the same (Path, Temporal) input.
func (o *OnlineCompressor) Flush() (*Compressed, error) {
	o.sp.Flush()
	o.btc.Flush()
	sc, err := o.c.CB.Encode(o.path)
	if err != nil {
		// Leave the streams reset even on failure so the compressor can be
		// reused for the next trajectory.
		o.Reset()
		return nil, err
	}
	sum := &BoundingSummary{MBR: o.mbr, T0: math.Inf(1), T1: math.Inf(-1)}
	if n := len(o.temp); n > 0 {
		sum.T0, sum.T1 = o.temp[0].T, o.temp[n-1].T
	}
	ct := &Compressed{Spatial: sc, Temporal: o.temp, Summary: sum}
	o.path, o.temp = nil, nil
	o.Reset()
	return ct, nil
}

// Park releases the spatial stream's open search (see OnlineSP.Park)
// without changing the output. Flush and Reset park too.
func (o *OnlineCompressor) Park() { o.sp.Park() }

// Reset discards any in-flight state and prepares for a new trajectory.
func (o *OnlineCompressor) Reset() {
	o.sp.Reset()
	o.btc.Reset()
	o.path = o.path[:0]
	o.temp = o.temp[:0]
	o.mbr = geo.EmptyMBR()
	o.edges, o.samples = 0, 0
}
