package spindex

import (
	"math"
	"slices"
	"sync"

	"press/internal/roadnet"
)

// Hier is the SP implementation the system serves. It answers every SP
// question — SPEnd, Dist, GapDist, Path and From — with the very search
// Table runs: dijkstraRow's loop from src, with the same (dist, id) heap
// order and the same relaxation rule, over pooled, epoch-stamped scratch,
// stopped as soon as dst is popped. dijkstraRow never relaxes a settled
// node, so at that pop the distance, the predecessor and the whole chain
// behind it are final, and the distance was accumulated by the same
// left-to-right float additions. The answers are Table's bit for bit by
// construction, for every graph, ties and float near-ties included. From
// keeps the search alive and resumes it for each next destination, so
// Algorithm 1's run of SPend questions from one anchor costs one search.
//
// Hier precomputes nothing and holds no index: its only memory is one
// search's scratch per concurrent query, pooled. It is safe for concurrent
// use.
type Hier struct {
	g       *roadnet.Graph
	n       int
	ctxPool sync.Pool // of *hierCtx
}

// NewHier returns the search-backed SP over g. It does no work up front.
func NewHier(g *roadnet.Graph) *Hier {
	return &Hier{g: g, n: g.NumEdges()}
}

// Graph returns the underlying road network.
func (h *Hier) Graph() *roadnet.Graph { return h.g }

// MemoryBytes reports the scratch bytes one search holds: a distance, a
// predecessor and two epoch stamps per edge. Each concurrent query holds
// one such scratch, drawn from a pool; the Hier holds nothing else. This is
// the number TestHierMemoryScalesLinearly holds against Table's O(|E|²)
// rows.
func (h *Hier) MemoryBytes() int { return h.n * hierCtxBytesPerEdge }

// hierCtxBytesPerEdge is the size of one edge's entries in a hierCtx:
// df (8) + pf (4) + sf (4) + sb (4).
const hierCtxBytesPerEdge = 20

// --- Search scratch ----------------------------------------------------------

// hierCtx holds one search's scratch state: epoch-stamped distance and
// predecessor arrays (no clearing between searches) and a reusable heap,
// pooled so concurrent queries allocate nothing steady-state.
//
// A hierCtx is also the Search that From hands out: h is the Hier it
// searches, and pend is the node that stopped the last advance, settled but
// not yet relaxed (-1 when none).
type hierCtx struct {
	df    []float64 // tentative distance, valid where sf == epoch
	pf    []int32   // tentative predecessor, valid where sf == epoch
	sf    []uint32  // epoch stamp: the node has a tentative label
	sb    []uint32  // epoch stamp: the node is settled
	epoch uint32
	q     nodeHeap

	h    *Hier
	pend int32
}

func (h *Hier) getCtx() *hierCtx {
	if c, ok := h.ctxPool.Get().(*hierCtx); ok && len(c.df) >= h.n {
		return c
	}
	n := h.n
	return &hierCtx{
		df: make([]float64, n), pf: make([]int32, n),
		sf: make([]uint32, n), sb: make([]uint32, n),
	}
}

func (h *Hier) putCtx(c *hierCtx) { h.ctxPool.Put(c) }

func (c *hierCtx) nextEpoch() {
	c.epoch++
	if c.epoch == 0 {
		clear(c.sf)
		clear(c.sb)
		c.epoch = 1
	}
}

func (c *hierCtx) labeled(v int32) bool { return c.sf[v] == c.epoch }
func (c *hierCtx) settled(v int32) bool { return c.sb[v] == c.epoch }

func (c *hierCtx) label(v int32, d float64, parent int32) {
	c.df[v], c.pf[v], c.sf[v] = d, parent, c.epoch
}

// --- Early-stopped line-graph Dijkstra ----------------------------------------

// settle runs dijkstraRow's loop from src in ctx's scratch and stops when
// dst is popped. It reports whether dst was reached. dijkstraRow never
// relaxes a settled node, so at that pop ctx.df[dst], ctx.pf[dst] and the
// whole predecessor chain behind it are final and equal Table's row.
func (h *Hier) settle(ctx *hierCtx, src, dst roadnet.EdgeID) bool {
	h.start(ctx, src)
	return h.advance(ctx, dst)
}

// start opens a new search from src in ctx's scratch.
func (h *Hier) start(ctx *hierCtx, src roadnet.EdgeID) {
	ctx.nextEpoch()
	ctx.q.reset()
	ctx.label(int32(src), 0, int32(roadnet.NoEdge))
	ctx.q.push(0, int32(src))
	ctx.pend = -1
}

// advance resumes ctx's search until dst is settled and reports whether it
// was reached. dijkstraRow pops nodes in the same order whatever node it
// stops at, so a search advanced to several destinations in turn settles
// exactly what one uninterrupted run would. Each turn of the loop relaxes
// the node it holds — at ctx.df[v], which is the distance v was popped at —
// and pops the next; the node that stops the search is kept in ctx.pend and
// relaxed first when the search resumes, so a Path or SPEnd that never
// resumes pays nothing for it.
func (h *Hier) advance(ctx *hierCtx, dst roadnet.EdgeID) bool {
	if dst < 0 || int(dst) >= h.n {
		return false // no such node: the whole search would never pop it
	}
	if ctx.settled(int32(dst)) {
		return true
	}
	q := &ctx.q
	v := ctx.pend
	for {
		if v >= 0 {
			d := ctx.df[v]
			for _, next := range h.g.Out(h.g.Edge(roadnet.EdgeID(v)).To) {
				w := int32(next)
				if ctx.settled(w) {
					continue
				}
				nd := d + h.g.Edge(next).Weight
				if !ctx.labeled(w) || nd < ctx.df[w] || (nd == ctx.df[w] && v < ctx.pf[w]) {
					ctx.label(w, nd, v)
					q.push(nd, w)
				}
			}
		}
		for { // pop the next unsettled node; entries of settled ones are stale
			if q.len() == 0 {
				ctx.pend = -1
				return false
			}
			if _, v = q.pop(); !ctx.settled(v) {
				break
			}
		}
		ctx.sb[v] = ctx.epoch
		if v == int32(dst) {
			ctx.pend = v
			return true
		}
	}
}

// --- SP contract --------------------------------------------------------------

// SPEnd returns the edge right before dst on the canonical shortest path
// from src to dst, or NoEdge when dst is unreachable from src or src == dst.
func (h *Hier) SPEnd(src, dst roadnet.EdgeID) roadnet.EdgeID {
	if src == dst {
		return roadnet.NoEdge
	}
	ctx := h.getCtx()
	defer h.putCtx(ctx)
	if !h.settle(ctx, src, dst) {
		return roadnet.NoEdge
	}
	return roadnet.EdgeID(ctx.pf[dst])
}

// From opens a search from src that answers SPEnd(src, dst) for any number
// of destinations, resuming one early-stopped Dijkstra instead of starting
// a fresh one per call: each answer equals SPEnd(src, dst). It holds a
// pooled scratch context (MemoryBytes) until Close. A warm From, SPEnd,
// Close sequence allocates nothing.
func (h *Hier) From(src roadnet.EdgeID) Search {
	ctx := h.getCtx()
	ctx.h = h
	h.start(ctx, src)
	return ctx
}

// SPEnd answers SPEnd(src, dst) for the search's source, advancing the
// search only as far as dst.
func (c *hierCtx) SPEnd(dst roadnet.EdgeID) roadnet.EdgeID {
	if !c.h.advance(c, dst) {
		return roadnet.NoEdge
	}
	return roadnet.EdgeID(c.pf[dst])
}

// Close returns the search's scratch to the pool.
func (c *hierCtx) Close() { c.h.putCtx(c) }

// Dist returns the shortest-path distance from src to dst under the same
// convention as Table.Dist: the distance dst settled at, which dijkstraRow's
// left-to-right accumulation produced.
func (h *Hier) Dist(src, dst roadnet.EdgeID) float64 {
	if src == dst {
		return 0
	}
	ctx := h.getCtx()
	defer h.putCtx(ctx)
	if !h.settle(ctx, src, dst) {
		return math.Inf(1)
	}
	return ctx.df[dst]
}

// GapDist returns the distance covered by the interior of SP(src, dst).
func (h *Hier) GapDist(src, dst roadnet.EdgeID) float64 {
	d := h.Dist(src, dst)
	if math.IsInf(d, 1) {
		return d
	}
	if src == dst {
		return 0
	}
	return d - h.g.Edge(dst).Weight
}

// Path reconstructs the canonical shortest path from src to dst, inclusive
// of both endpoints, by walking the settled predecessor chain back from dst.
// Returns nil when unreachable.
func (h *Hier) Path(src, dst roadnet.EdgeID) []roadnet.EdgeID {
	if src == dst {
		return []roadnet.EdgeID{src}
	}
	ctx := h.getCtx()
	defer h.putCtx(ctx)
	if !h.settle(ctx, src, dst) {
		return nil
	}
	var rev []roadnet.EdgeID
	for cur := int32(dst); cur != int32(src); cur = ctx.pf[cur] {
		rev = append(rev, roadnet.EdgeID(cur))
	}
	rev = append(rev, src)
	slices.Reverse(rev)
	return rev
}

// --- Deterministic binary heap ------------------------------------------------

// nodeHeap is a hand-rolled binary min-heap keyed by (key, id) — the id
// tie-break keeps every search deterministic. Lazy deletion: callers push
// duplicates and skip stale pops.
type nodeHeap struct {
	key []float64
	id  []int32
}

func (q *nodeHeap) reset() {
	q.key = q.key[:0]
	q.id = q.id[:0]
}

func (q *nodeHeap) len() int { return len(q.key) }

func (q *nodeHeap) less(i, j int) bool {
	return q.key[i] < q.key[j] || (q.key[i] == q.key[j] && q.id[i] < q.id[j])
}

func (q *nodeHeap) swap(i, j int) {
	q.key[i], q.key[j] = q.key[j], q.key[i]
	q.id[i], q.id[j] = q.id[j], q.id[i]
}

func (q *nodeHeap) push(k float64, v int32) {
	q.key = append(q.key, k)
	q.id = append(q.id, v)
	i := len(q.key) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *nodeHeap) pop() (float64, int32) {
	k, v := q.key[0], q.id[0]
	last := len(q.key) - 1
	q.swap(0, last)
	q.key = q.key[:last]
	q.id = q.id[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && q.less(l, small) {
			small = l
		}
		if r < last && q.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q.swap(i, small)
		i = small
	}
	return k, v
}
