// Package core implements the primary contribution of PRESS: Hybrid Spatial
// Compression (HSC = shortest-path compression + frequent-sub-trajectory
// coding, §3), Bounded Temporal Compression (BTC, §4) with its TSND and
// NSTD error metrics, and the combined compressed-trajectory codec.
package core

import (
	"errors"
	"fmt"

	"press/internal/roadnet"
	"press/internal/spindex"
	"press/internal/traj"
)

// OnlineSP is Algorithm 1, greedy shortest-path compression, written as a
// stream: push edges as the vehicle traverses them. A maximal run of edges
// that exactly follows the canonical shortest path between its two
// endpoints is replaced by those endpoints, and each retained edge is final
// the moment the run breaks. The greedy strategy is optimal (Theorem 1).
// The input must be a connected edge path.
//
// Each anchor's SPend questions go to one search from it (SP.From),
// resumed as the run grows instead of restarted per edge. Park releases
// that search and the next Push reopens it from the anchor, so a stream
// parked between frames pays one search per frame, not one per edge.
//
// The zero value with sp set is ready to use.
type OnlineSP struct {
	sp     spindex.SP
	search spindex.Search // open search from anchor; nil when parked
	anchor roadnet.EdgeID
	prev   roadnet.EdgeID
	n      int
	out    traj.Path // retained edges
}

// NewOnlineSP creates a streaming SP compressor.
func NewOnlineSP(sp spindex.SP) *OnlineSP { return &OnlineSP{sp: sp} }

// Push feeds the next traversed edge.
func (o *OnlineSP) Push(e roadnet.EdgeID) {
	o.n++
	switch o.n {
	case 1:
		o.out = append(o.out, e)
		o.anchor = e
	case 2:
		o.prev = e
	default:
		if o.search == nil {
			o.search = o.sp.From(o.anchor)
		}
		if o.search.SPEnd(e) != o.prev {
			o.out = append(o.out, o.prev)
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

// Flush retains the trailing edge and returns the compressed path, which
// the caller then owns. The compressor is reset for a new trajectory.
func (o *OnlineSP) Flush() traj.Path {
	if o.n >= 2 {
		o.out = append(o.out, o.prev)
	}
	out := o.out
	o.out = nil
	o.Reset()
	return out
}

// Reset parks and discards the trajectory in flight.
func (o *OnlineSP) Reset() {
	o.Park()
	*o = OnlineSP{sp: o.sp, out: o.out[:0]}
}

// SPCompress runs OnlineSP over a whole path.
func SPCompress(sp spindex.SP, path traj.Path) traj.Path {
	o := OnlineSP{sp: sp, out: make(traj.Path, 0, 4)}
	for _, e := range path {
		o.Push(e)
	}
	return o.Flush()
}

// SPDecompress inverts SPCompress: any two consecutive retained edges that
// are not adjacent in the network are bridged by the canonical shortest path
// between them. It fails if some pair is mutually unreachable, which cannot
// happen for outputs of SPCompress on valid paths.
func SPDecompress(t spindex.SP, compressed traj.Path) (traj.Path, error) {
	if len(compressed) == 0 {
		return nil, errors.New("core: empty compressed path")
	}
	g := t.Graph()
	out := make(traj.Path, 0, len(compressed)*2)
	out = append(out, compressed[0])
	for i := 1; i < len(compressed); i++ {
		a, b := compressed[i-1], compressed[i]
		if g.Adjacent(a, b) {
			out = append(out, b)
			continue
		}
		sp := t.Path(a, b)
		if sp == nil {
			return nil, fmt.Errorf("core: edges %d and %d are not connected", a, b)
		}
		out = append(out, sp[1:]...)
	}
	return out, nil
}
