package core

import (
	"errors"
	"fmt"
	"math"

	"press/internal/geo"
	"press/internal/roadnet"
	"press/internal/traj"
)

// The paper notes (§7.2) that "the compression procedure scans the spatial
// path and temporal sequence from head to tail without tracing back. This
// means PRESS can be adapted to online compression." OnlineSP (Algorithm 1)
// and OnlineBTC (Algorithm 3) are the only implementations of the two
// algorithms: each consumes one element at a time and retains an element
// as soon as it is final. The batch entry points (SPCompress, BTC,
// Compressor.Compress) push a whole input through them and flush.

// OnlineCompressor composes OnlineSP and OnlineBTC behind one push/flush
// API. Push edges as the vehicle enters them (PushEdge) and (d, t) tuples
// as fixes arrive (PushSample); Flush finalizes both streams, runs the
// retained spatial path through the FST codebook and returns the
// Compressed record. Compressor.Compress is this type run over a whole
// trajectory, so a streamed record is the batch record by construction.
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
	sp      OnlineSP
	btc     OnlineBTC
	mbr     geo.MBR    // union of raw-edge MBRs, for the BoundingSummary
	edges   int        // raw edges pushed since the last Reset/Flush
	samples int        // raw tuples pushed since the last Reset/Flush
	last    traj.Entry // the last tuple pushed, when samples > 0
}

// NewOnlineCompressor creates a streaming compressor sharing the batch
// compressor's static structures (SP table, codebook, temporal bounds).
func NewOnlineCompressor(c *Compressor) (*OnlineCompressor, error) {
	if c == nil {
		return nil, errors.New("core: nil compressor")
	}
	o := c.online()
	return &o, nil
}

func (c *Compressor) online() OnlineCompressor {
	return OnlineCompressor{
		c:   c,
		sp:  OnlineSP{sp: c.SP},
		btc: OnlineBTC{tau: c.Tau, eta: c.Eta},
		mbr: geo.EmptyMBR(),
	}
}

// PushEdge feeds the next traversed edge of the spatial path. The edge's
// geometry MBR is folded into the running bounding summary: the union of
// the raw edges' MBRs covers the same point set as the path polyline, so
// its bounds are the polyline's bit for bit. An edge outside the network is
// refused with an error and changes nothing.
func (o *OnlineCompressor) PushEdge(e roadnet.EdgeID) error {
	if err := o.checkEdge(e); err != nil {
		return err
	}
	o.pushEdge(e)
	return nil
}

// PushSample feeds the next temporal (d, t) tuple. A tuple that is not
// finite, whose T is not after the last pushed T, or whose D is below the
// last pushed D is refused with an error and changes nothing: BTC's window
// is only defined over strictly increasing T and non-decreasing D.
func (o *OnlineCompressor) PushSample(p traj.Entry) error {
	if err := o.checkSample(p); err != nil {
		return err
	}
	o.pushSample(p)
	return nil
}

// Push feeds one observation: the edge the vehicle entered (NoEdge for
// none) and, when hasSample, its (d, t) tuple. Both are checked before
// either is applied, so a refused observation changes nothing.
func (o *OnlineCompressor) Push(e roadnet.EdgeID, p traj.Entry, hasSample bool) error {
	if e != roadnet.NoEdge {
		if err := o.checkEdge(e); err != nil {
			return err
		}
	}
	if hasSample {
		if err := o.checkSample(p); err != nil {
			return err
		}
	}
	if e != roadnet.NoEdge {
		o.pushEdge(e)
	}
	if hasSample {
		o.pushSample(p)
	}
	return nil
}

// checkEdge refuses an edge id outside the network: the SP search and the
// MBR fold index by it.
func (o *OnlineCompressor) checkEdge(e roadnet.EdgeID) error {
	if n := o.c.Graph.NumEdges(); e < 0 || int(e) >= n {
		return fmt.Errorf("core: edge %d outside the network's %d edges", e, n)
	}
	return nil
}

func (o *OnlineCompressor) checkSample(p traj.Entry) error {
	switch {
	case !finite(p.D) || !finite(p.T):
		return fmt.Errorf("core: sample (d=%v, t=%v) is not finite", p.D, p.T)
	case o.samples == 0:
		return nil
	case p.T <= o.last.T:
		return fmt.Errorf("core: sample t=%v not after the previous t=%v", p.T, o.last.T)
	case p.D < o.last.D:
		return fmt.Errorf("core: sample d=%v below the previous d=%v", p.D, o.last.D)
	}
	return nil
}

func (o *OnlineCompressor) pushEdge(e roadnet.EdgeID) {
	o.edges++
	o.mbr.ExtendMBR(o.c.Graph.Edge(e).MBR())
	o.sp.Push(e)
}

func (o *OnlineCompressor) pushSample(p traj.Entry) {
	o.samples++
	o.last = p
	o.btc.Push(p)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

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
	return cap(o.sp.out)*4 + cap(o.btc.out)*16
}

// Flush finalizes the trajectory: the trailing window elements are
// retained, the retained spatial path is FST-encoded, and the compressor
// resets itself for the next trajectory, also when encoding fails. The
// summary's time interval is the retained sequence's first and last
// timestamps, inverted (never overlapping) when there is none.
func (o *OnlineCompressor) Flush() (*Compressed, error) {
	path, temp, mbr := o.sp.Flush(), o.btc.Flush(), o.mbr
	o.Reset()
	sc, err := o.c.CB.Encode(path)
	if err != nil {
		return nil, err
	}
	sum := &BoundingSummary{MBR: mbr, T0: math.Inf(1), T1: math.Inf(-1)}
	if n := len(temp); n > 0 {
		sum.T0, sum.T1 = temp[0].T, temp[n-1].T
	}
	return &Compressed{Spatial: sc, Temporal: temp, Summary: sum}, nil
}

// Park releases the spatial stream's open search (see OnlineSP.Park)
// without changing the output. Flush and Reset park too.
func (o *OnlineCompressor) Park() { o.sp.Park() }

// Reset discards any in-flight state and prepares for a new trajectory.
func (o *OnlineCompressor) Reset() {
	o.sp.Reset()
	o.btc.Reset()
	o.mbr = geo.EmptyMBR()
	o.edges, o.samples = 0, 0
}
