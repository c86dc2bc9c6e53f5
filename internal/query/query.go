// Package query implements the PRESS query processor of §5: whereat, whenat
// and range over compressed trajectories — without full decompression —
// plus the §5.4 extensions (passing-nearby and minimal trajectory distance)
// and the reference implementations over uncompressed trajectories the
// paper's Figs. 15-17 compare against.
//
// The §5 auxiliary structures are materialized in Engine:
//
//   - per-Trie-node distances: the network length of each node's
//     sub-trajectory after SP decompression (Tsub(n).d);
//   - per-Trie-node MBRs of the decompressed sub-trajectory;
//   - lazily cached distances, edges and MBRs of the shortest-path gaps
//     between consecutive pieces.
//
// A compressed spatial code is viewed as an alternating sequence of units:
// trie-node pieces and the shortest-path gaps joining them. Queries walk
// units, pruning with distances and MBRs, and only materialize the edges of
// the units that can contain the answer.
package query

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"press/internal/core"
	"press/internal/geo"
	"press/internal/roadnet"
	"press/internal/spindex"
	"press/internal/traj"
	"press/internal/trie"
)

// Engine owns the auxiliary structures and answers queries over compressed
// trajectories. It is safe for concurrent use.
type Engine struct {
	g  *roadnet.Graph
	sp spindex.SP
	cb *core.Codebook

	nodeDist  []float64          // per trie node: length of the decompressed piece
	nodeMBR   []geo.MBR          // per trie node: MBR of the decompressed piece
	nodeEdges [][]roadnet.EdgeID // per trie node: decompressed edge path
	nodePl    []geo.Polyline     // per trie node: decompressed geometry

	mu       sync.RWMutex
	gapDist  map[gapKey]float64
	gapMBR   map[gapKey]geo.MBR
	gapEdges map[gapKey][]roadnet.EdgeID
	gapPl    map[gapKey]geo.Polyline
}

type gapKey struct{ a, b roadnet.EdgeID }

// NewEngine precomputes the per-node auxiliary structures.
func NewEngine(g *roadnet.Graph, sp spindex.SP, cb *core.Codebook) (*Engine, error) {
	if g == nil || sp == nil || cb == nil {
		return nil, errors.New("query: nil component")
	}
	n := cb.Trie.NumNodes()
	e := &Engine{
		g: g, sp: sp, cb: cb,
		nodeDist:  make([]float64, n),
		nodeMBR:   make([]geo.MBR, n),
		nodeEdges: make([][]roadnet.EdgeID, n),
		nodePl:    make([]geo.Polyline, n),
		gapDist:   make(map[gapKey]float64),
		gapMBR:    make(map[gapKey]geo.MBR),
		gapEdges:  make(map[gapKey][]roadnet.EdgeID),
		gapPl:     make(map[gapKey]geo.Polyline),
	}
	for id := 1; id < n; id++ {
		edges, err := core.SPDecompress(sp, traj.Path(cb.Trie.NodeString(trie.NodeID(id))))
		if err != nil {
			return nil, fmt.Errorf("query: node %d: %w", id, err)
		}
		e.nodeEdges[id] = []roadnet.EdgeID(edges)
		e.nodeDist[id] = g.PathLength([]roadnet.EdgeID(edges))
		e.nodePl[id] = g.PathPolyline([]roadnet.EdgeID(edges))
		e.nodeMBR[id] = e.nodePl[id].MBR()
	}
	return e, nil
}

// MemoryBytes estimates the engine's auxiliary storage (the §6.3 overhead
// discussion): node distances + node MBRs + cached gap distances and MBRs.
func (e *Engine) MemoryBytes() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	total := len(e.nodeDist)*8 + len(e.nodeMBR)*32 + len(e.gapDist)*(8+8) + len(e.gapMBR)*(8+32)
	for _, edges := range e.nodeEdges {
		total += len(edges) * 4
	}
	for _, pl := range e.nodePl {
		total += len(pl) * 16
	}
	for _, edges := range e.gapEdges {
		total += 8 + len(edges)*4
	}
	for _, pl := range e.gapPl {
		total += 8 + len(pl)*16
	}
	return total
}

// unit is one alternating element of a compressed trajectory's spatial
// structure: either a trie-node piece or the shortest-path gap between two
// consecutive pieces.
type unit struct {
	isGap  bool
	node   trie.NodeID    // piece: which node
	from   roadnet.EdgeID // gap: bracketing edges
	to     roadnet.EdgeID
	startD float64 // cumulative network distance at unit start
	length float64
}

// cursor streams the unit sequence of a compressed trajectory, decoding one
// Huffman symbol at a time so queries that stop early (§5.1: "it on average
// recovers n/2αγ trie nodes") never pay for the whole code.
type cursor struct {
	e          *Engine
	dec        core.NodeDecoder
	d          float64
	prev       trie.NodeID
	pending    unit // piece waiting behind an emitted gap
	hasPending bool
}

func (e *Engine) newCursor(ct *core.Compressed) cursor {
	return cursor{e: e, dec: e.cb.NewNodeDecoder(ct.Spatial), prev: trie.NoNode}
}

// next returns the next unit; ok=false at end of stream.
func (c *cursor) next() (unit, bool, error) {
	if c.hasPending {
		u := c.pending
		c.hasPending = false
		c.d += u.length
		return u, true, nil
	}
	n, ok, err := c.dec.Next()
	if err != nil || !ok {
		return unit{}, false, err
	}
	piece := unit{node: n, startD: c.d, length: c.e.nodeDist[n]}
	if c.prev != trie.NoNode {
		a := c.e.cb.Trie.LastEdge(c.prev)
		b := c.e.cb.Trie.FirstEdge(n)
		gap := c.e.gapDistOf(a, b)
		if math.IsInf(gap, 1) {
			return unit{}, false, fmt.Errorf("query: disconnected pieces %d->%d", a, b)
		}
		if gap > 0 {
			g := unit{isGap: true, from: a, to: b, startD: c.d, length: gap}
			piece.startD += gap
			c.pending = piece
			c.hasPending = true
			c.prev = n
			c.d += gap
			return g, true, nil
		}
	}
	c.prev = n
	c.d += piece.length
	return piece, true, nil
}

// unitIter streams a trajectory's unit sequence. The lazy cursor and the
// cached slice iterator both satisfy it, so every query body runs
// unchanged over a fresh decode or a cache hit.
type unitIter interface {
	next() (unit, bool, error)
}

// sliceIter replays an already-materialized unit sequence — the cache-hit
// path: no Huffman decoding, no trie walks.
type sliceIter struct {
	units []unit
	i     int
}

func (s *sliceIter) next() (unit, bool, error) {
	if s.i >= len(s.units) {
		return unit{}, false, nil
	}
	u := s.units[s.i]
	s.i++
	return u, true, nil
}

// units materializes the full unit sequence (used by queries that must
// consider every unit anyway, and by the decoded-record cache).
func (e *Engine) units(ct *core.Compressed) ([]unit, error) {
	cur := e.newCursor(ct)
	var out []unit
	for {
		u, ok, err := cur.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, u)
	}
}

// gapDistOf returns the network length of the shortest-path gap a→b,
// caching it: every decode of a record walks the same gaps again.
func (e *Engine) gapDistOf(a, b roadnet.EdgeID) float64 {
	k := gapKey{a, b}
	e.mu.RLock()
	d, ok := e.gapDist[k]
	e.mu.RUnlock()
	if ok {
		return d
	}
	d = e.sp.GapDist(a, b)
	e.mu.Lock()
	e.gapDist[k] = d
	e.mu.Unlock()
	return d
}

// edgesOf returns the edge path of a unit: a precomputed table lookup for
// trie-node pieces, a cached shortest-path interior for gaps.
func (e *Engine) edgesOf(u unit) ([]roadnet.EdgeID, error) {
	if !u.isGap {
		return e.nodeEdges[u.node], nil
	}
	k := gapKey{u.from, u.to}
	e.mu.RLock()
	edges, ok := e.gapEdges[k]
	e.mu.RUnlock()
	if ok {
		return edges, nil
	}
	sp := e.sp.Path(u.from, u.to)
	if sp == nil {
		return nil, fmt.Errorf("query: no path %d->%d", u.from, u.to)
	}
	edges = append([]roadnet.EdgeID(nil), sp[1:len(sp)-1]...) // interior only
	e.mu.Lock()
	e.gapEdges[k] = edges
	e.mu.Unlock()
	return edges, nil
}

// polylineOf returns the unit's geometry: precomputed for trie-node pieces,
// cached for gaps.
func (e *Engine) polylineOf(u unit) (geo.Polyline, error) {
	if !u.isGap {
		return e.nodePl[u.node], nil
	}
	k := gapKey{u.from, u.to}
	e.mu.RLock()
	pl, ok := e.gapPl[k]
	e.mu.RUnlock()
	if ok {
		return pl, nil
	}
	edges, err := e.edgesOf(u)
	if err != nil {
		return nil, err
	}
	pl = e.g.PathPolyline(edges)
	e.mu.Lock()
	e.gapPl[k] = pl
	e.mu.Unlock()
	return pl, nil
}

// mbrOf returns the unit's MBR, caching gap MBRs.
func (e *Engine) mbrOf(u unit) (geo.MBR, error) {
	if !u.isGap {
		return e.nodeMBR[u.node], nil
	}
	k := gapKey{u.from, u.to}
	e.mu.RLock()
	m, ok := e.gapMBR[k]
	e.mu.RUnlock()
	if ok {
		return m, nil
	}
	edges, err := e.edgesOf(u)
	if err != nil {
		return geo.MBR{}, err
	}
	m = e.g.PathPolyline(edges).MBR()
	e.mu.Lock()
	e.gapMBR[k] = m
	e.mu.Unlock()
	return m, nil
}

// disLinear mirrors the paper's cost model: a linear scan of the temporal
// tuples (m/2 visits on average uncompressed, m/2β compressed).
func disLinear(ts traj.Temporal, t float64) float64 {
	n := len(ts)
	if n == 0 {
		return 0
	}
	if t <= ts[0].T {
		return ts[0].D
	}
	for i := 1; i < n; i++ {
		if t <= ts[i].T {
			a, b := ts[i-1], ts[i]
			return a.D + (b.D-a.D)*(t-a.T)/(b.T-a.T)
		}
	}
	return ts[n-1].D
}

// timLinear is the linear-scan first-arrival inverse.
func timLinear(ts traj.Temporal, d float64) float64 {
	n := len(ts)
	if n == 0 {
		return 0
	}
	if d <= ts[0].D {
		return ts[0].T
	}
	for i := 1; i < n; i++ {
		if d <= ts[i].D {
			a, b := ts[i-1], ts[i]
			if b.D == a.D {
				return a.T
			}
			return a.T + (b.T-a.T)*(d-a.D)/(b.D-a.D)
		}
	}
	return ts[n-1].T
}

// WhereAt returns the location along the compressed trajectory at time t
// (§5.1). The answer deviates from the true location by at most the
// compressor's TSND bound. The walk decodes trie nodes lazily and stops at
// the unit containing the answer distance, visiting n/(2αγ) nodes on
// average per the paper's analysis.
func (e *Engine) WhereAt(ct *core.Compressed, t float64) (geo.Point, error) {
	cur := e.newCursor(ct)
	return e.whereAtUnits(&cur, ct.Temporal, t)
}

func (e *Engine) whereAtUnits(it unitIter, ts traj.Temporal, t float64) (geo.Point, error) {
	d := disLinear(ts, t)
	var last unit
	seen := false
	for {
		u, ok, err := it.next()
		if err != nil {
			return geo.Point{}, err
		}
		if !ok {
			break
		}
		if d <= u.startD+u.length {
			edges, err := e.edgesOf(u)
			if err != nil {
				return geo.Point{}, err
			}
			return e.g.PointAlongPath(edges, d-u.startD), nil
		}
		last = u
		seen = true
	}
	// Past the end: final point.
	if !seen {
		return geo.Point{}, errors.New("query: empty trajectory")
	}
	edges, err := e.edgesOf(last)
	if err != nil {
		return geo.Point{}, err
	}
	pl := e.g.PathPolyline(edges)
	return pl[len(pl)-1], nil
}

// WhenAt returns the time at which the trajectory passes the given location
// (§5.2): the point is located on the spatial path via MBR-pruned search,
// its network distance from the start is derived, and the temporal sequence
// is inverted. The answer deviates by at most the NSTD bound.
func (e *Engine) WhenAt(ct *core.Compressed, p geo.Point) (float64, error) {
	cur := e.newCursor(ct)
	return e.whenAtUnits(&cur, ct.Temporal, p)
}

func (e *Engine) whenAtUnits(it unitIter, ts traj.Temporal, p geo.Point) (float64, error) {
	bestDist := math.Inf(1)
	var bestD float64
	for {
		u, ok, err := it.next()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		m, err := e.mbrOf(u)
		if err != nil {
			return 0, err
		}
		if m.DistToPoint(p) >= bestDist {
			continue
		}
		pl, err := e.polylineOf(u)
		if err != nil {
			return 0, err
		}
		_, along, dist := pl.Project(p)
		if dist < bestDist {
			bestDist = dist
			bestD = u.startD + along
		}
	}
	if math.IsInf(bestDist, 1) {
		return 0, errors.New("query: point not locatable")
	}
	return timLinear(ts, bestD), nil
}

// Range reports whether the trajectory passes through region r during
// [t1, t2] (§5.3).
func (e *Engine) Range(ct *core.Compressed, t1, t2 float64, r geo.MBR) (bool, error) {
	cur := e.newCursor(ct)
	return e.rangeUnits(&cur, ct.Temporal, t1, t2, r)
}

func (e *Engine) rangeUnits(it unitIter, ts traj.Temporal, t1, t2 float64, r geo.MBR) (bool, error) {
	if t2 < t1 {
		t1, t2 = t2, t1
	}
	d1 := disLinear(ts, t1)
	d2 := disLinear(ts, t2)
	for {
		u, ok, err := it.next()
		if err != nil {
			return false, err
		}
		if !ok || u.startD > d2 {
			return false, nil
		}
		if u.startD+u.length < d1 {
			continue
		}
		m, err := e.mbrOf(u)
		if err != nil {
			return false, err
		}
		if !m.Intersects(r) {
			continue
		}
		pl, err := e.polylineOf(u)
		if err != nil {
			return false, err
		}
		sub := subPolyline(pl, d1-u.startD, d2-u.startD)
		if sub.IntersectsMBR(r) {
			return true, nil
		}
	}
}

// PassesNear reports whether the trajectory comes within dist of p during
// [t1, t2] (§5.4 extension).
func (e *Engine) PassesNear(ct *core.Compressed, p geo.Point, dist, t1, t2 float64) (bool, error) {
	cur := e.newCursor(ct)
	return e.passesNearUnits(&cur, ct.Temporal, p, dist, t1, t2)
}

func (e *Engine) passesNearUnits(it unitIter, ts traj.Temporal, p geo.Point, dist, t1, t2 float64) (bool, error) {
	if t2 < t1 {
		t1, t2 = t2, t1
	}
	d1 := disLinear(ts, t1)
	d2 := disLinear(ts, t2)
	for {
		u, ok, err := it.next()
		if err != nil {
			return false, err
		}
		if !ok || u.startD > d2 {
			return false, nil
		}
		if u.startD+u.length < d1 {
			continue
		}
		m, err := e.mbrOf(u)
		if err != nil {
			return false, err
		}
		if m.DistToPoint(p) > dist {
			continue
		}
		pl, err := e.polylineOf(u)
		if err != nil {
			return false, err
		}
		sub := subPolyline(pl, d1-u.startD, d2-u.startD)
		if len(sub) > 0 && sub.DistToPoint(p) <= dist {
			return true, nil
		}
	}
}

// MinDistance returns the minimal planar distance between the spatial paths
// of two compressed trajectories (§5.4 extension), using MBR pruning
// between unit pairs before materializing edges.
func (e *Engine) MinDistance(a, b *core.Compressed) (float64, error) {
	ua, err := e.units(a)
	if err != nil {
		return 0, err
	}
	ub, err := e.units(b)
	if err != nil {
		return 0, err
	}
	return e.minDistanceUnits(ua, ub)
}

func (e *Engine) minDistanceUnits(ua, ub []unit) (float64, error) {
	best := math.Inf(1)
	plCache := map[int]geo.Polyline{}
	polyline := func(us []unit, i int, off int) (geo.Polyline, error) {
		if pl, ok := plCache[off+i]; ok {
			return pl, nil
		}
		pl, err := e.polylineOf(us[i])
		if err != nil {
			return nil, err
		}
		plCache[off+i] = pl
		return pl, nil
	}
	for i := range ua {
		ma, err := e.mbrOf(ua[i])
		if err != nil {
			return 0, err
		}
		for j := range ub {
			mb, err := e.mbrOf(ub[j])
			if err != nil {
				return 0, err
			}
			if ma.DistToMBR(mb) >= best {
				continue
			}
			pla, err := polyline(ua, i, 0)
			if err != nil {
				return 0, err
			}
			plb, err := polyline(ub, j, 1<<20)
			if err != nil {
				return 0, err
			}
			if d := polylineMinDist(pla, plb); d < best {
				best = d
			}
		}
	}
	return best, nil
}

// subPolyline extracts the part of pl between network distances from and to
// (clamped). Returns nil when the window is empty.
func subPolyline(pl geo.Polyline, from, to float64) geo.Polyline {
	if to < from || len(pl) < 2 {
		return nil
	}
	total := pl.Length()
	if from < 0 {
		from = 0
	}
	if to > total {
		to = total
	}
	if to <= from {
		// Degenerate window: single point.
		return geo.Polyline{pl.At(from)}
	}
	out := geo.Polyline{pl.At(from)}
	var acc float64
	for i := 1; i < len(pl); i++ {
		seg := pl[i-1].Dist(pl[i])
		if acc+seg <= from {
			acc += seg
			continue
		}
		if acc >= to {
			break
		}
		if acc+seg >= to {
			out = append(out, pl.At(to))
			break
		}
		out = append(out, pl[i])
		acc += seg
	}
	return out
}

// polylineMinDist is the brute-force minimal distance between two polylines.
func polylineMinDist(a, b geo.Polyline) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	if len(a) == 1 {
		return b.DistToPoint(a[0])
	}
	if len(b) == 1 {
		return a.DistToPoint(b[0])
	}
	best := math.Inf(1)
	for i := 1; i < len(a); i++ {
		sa := geo.Segment{A: a[i-1], B: a[i]}
		for j := 1; j < len(b); j++ {
			if d := sa.DistToSegment(geo.Segment{A: b[j-1], B: b[j]}); d < best {
				best = d
			}
		}
	}
	return best
}
