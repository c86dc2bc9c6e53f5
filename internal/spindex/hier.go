package spindex

// Hier is the SP implementation the system serves: a contraction hierarchy
// (CH) built over the same line graph Table runs Dijkstra on (edges as
// nodes; the arc a→b exists when To(a) == From(b) and costs w(b)).
// Construction contracts nodes in a heuristic importance order, inserting a
// shortcut u→w for a contracted node v only when no witness path of equal
// or smaller cost survives among the uncontracted nodes; queries then run
// two upward Dijkstras (forward from src over arcs into higher-ranked nodes,
// backward from dst over arcs from higher-ranked nodes) whose best meeting
// node yields a shortest path after shortcut unpacking. Memory is
// O(|E| + shortcuts) instead of Table's O(|E|²) rows.
//
// Answer identity with Table is a hard contract, and floating point makes
// it subtle: a shortcut's weight is fl(c1+c2), summed in contraction order,
// while Table accumulates fl left-to-right along the path. Hier therefore
// never reports a CH-summed distance. Every Dist unpacks the winning
// up-down path into its original line-graph nodes and re-sums the weights
// left to right — the exact float accumulation dijkstraRow performs — and
// SPEnd re-derives Table's canonical predecessor locally: among the
// in-edges p of From(dst), the candidates are those with
// fl(D(p)+w(dst)) == D(dst) that Table would have settled before dst
// (D(p) < D(dst), or D(p) == D(dst) with p < dst), and the canonical
// SPend is the smallest candidate id. When the local rule finds no
// candidate, or a source gets hot, Hier falls back to dijkstraRow itself —
// the very code Table runs — via a bounded LRU of expanded rows, so
// repeated lookups against one source (the compressor's anchor pattern)
// amortize to table speed and correctness can never drift.
//
// The residual gap this cannot close: two distinct shortest paths whose
// true lengths differ by less than a float re-association error (sub-ULP
// "near ties" between different weight multisets) could make the CH prefer
// a path whose left-to-right re-sum is one ULP off Table's. Real-valued
// edge weights derived from geometry never exhibit this (exact ties come
// from identical weight multisets, which re-sum identically), and the
// property tests and FuzzHierVsTable enforce equality on every seed
// exercised. DESIGN.md states the contract precisely.

import (
	"container/list"
	"encoding/binary"
	"math"
	"sync"

	"press/internal/roadnet"
)

const (
	// hierArcBytes is the wire/heap layout of one arc:
	// from u32 | to u32 | left i32 | right i32 | weight f64.
	// left/right are the constituent arena arcs of a shortcut (-1 for an
	// original arc); both always reference strictly smaller arc ids, so
	// unpacking terminates by construction.
	hierArcBytes = 24

	// hierExpandThreshold is how many CH-served SPEnd/Path lookups a single
	// source sustains before its full Dijkstra row is materialized into the
	// LRU. Compression hits one anchor edge with a run of SPEnd calls, so a
	// tiny threshold converts the hot pattern to O(1) row lookups while
	// one-off sources never pay an O(|E| log |E|) row.
	hierExpandThreshold = 3

	// defaultHierRowCache bounds the expanded-row LRU (per Hier, in rows).
	defaultHierRowCache = 64

	// hierWitnessSettleCap bounds each witness search during construction.
	// Cutting a witness search short only ever adds a redundant shortcut —
	// never an incorrect distance — so the cap trades a little memory for
	// bounded build time on dense cores.
	hierWitnessSettleCap = 120
)

// HierOptions tunes a Hier; the zero value picks defaults.
type HierOptions struct {
	// RowCacheRows bounds the LRU of fully expanded Dijkstra rows
	// (0 = default of 64). Each row costs about 12·|E| bytes.
	RowCacheRows int

	// BuildWorkers sets how many goroutines the batched contraction build
	// uses (0 = GOMAXPROCS). The hierarchy is byte-identical at any
	// worker count; the knob only trades build wall-clock for CPU.
	BuildWorkers int

	// WitnessSettleCap bounds each witness search during construction
	// (0 = derive from line-graph density, see resolveWitnessCap). The
	// same value caps the cheap witness probes some query-side heuristics
	// run, so it is resolved for mapped hierarchies too.
	WitnessSettleCap int

	// UnpackCacheEntries bounds the LRU of unpacked shortcut expansions
	// shared by Path/GapDist/SPEnd (0 = default of 2048, negative =
	// disabled). Each entry costs ~2 original arcs of the shortcut's span.
	UnpackCacheEntries int
}

// Hier answers the SP contract from a contraction hierarchy over the line
// graph. It is safe for concurrent use. Build one with NewHier (heap) or
// OpenHierMapped (read-only snapshot mapping).
type Hier struct {
	g *roadnet.Graph
	n int

	// Flat little-endian sections, identical on heap and in the snapshot
	// file: the query path reads only these, so save/load is bit-exact.
	rank    []byte // n × u32: contraction order of each line-graph node
	arcs    []byte // numArcs × hierArcBytes
	fwdIdx  []byte // (n+1) × u32 offsets into fwdList
	fwdList []byte // arcs leaving each node toward higher rank, by arc id
	bwdIdx  []byte // (n+1) × u32 offsets into bwdList
	bwdList []byte // arcs entering each node from higher rank, by arc id

	numArcs   int
	shortcuts int

	// Snapshot-backed state. payloadCheck is non-nil for a mapped Hier and
	// validates section CRCs plus structural invariants exactly once, on
	// first query — the open itself reads only the header and directory.
	mappedLen    int
	unmap        func() error
	payloadCheck func() error
	checkOnce    sync.Once
	checkErr     error

	rowCap       int
	expandAfter  int // misses per source before row expansion (tests tune it)
	witnessCap   int // resolved witness settle cap (build knob, reported in stats)
	buildWorkers int // workers the build actually used (0 for mapped opens)

	unpack *unpackCache // bounded LRU of unpacked shortcut expansions

	mu   sync.Mutex
	rows map[roadnet.EdgeID]*hierRow
	lru  *list.List // of roadnet.EdgeID, front = most recently used
	miss map[roadnet.EdgeID]int

	ctxPool sync.Pool // of *hierCtx
}

type hierRow struct {
	pred []roadnet.EdgeID
	dist []float64
	elem *list.Element
}

// NewHier builds a contraction hierarchy over g with default options.
// Construction runs the full node ordering and contraction — O(|E|) witness
// searches — which is the precompute this implementation trades for
// Table.PrecomputeAll's O(|E|) full Dijkstras and O(|E|²) rows.
func NewHier(g *roadnet.Graph) *Hier {
	return NewHierWith(g, HierOptions{})
}

// NewHierWith builds a contraction hierarchy over g with explicit options.
func NewHierWith(g *roadnet.Graph, opt HierOptions) *Hier {
	b := newCHBuilder(g, opt)
	b.run()
	h := b.encode()
	h.buildWorkers = b.workers
	h.finish(opt)
	return h
}

// finish completes a Hier whose flat sections are already in place.
func (h *Hier) finish(opt HierOptions) {
	h.rowCap = opt.RowCacheRows
	if h.rowCap <= 0 {
		h.rowCap = defaultHierRowCache
	}
	h.expandAfter = hierExpandThreshold
	h.witnessCap = resolveWitnessCap(opt.WitnessSettleCap, h.numArcs-h.shortcuts, h.n)
	h.unpack = newUnpackCache(opt.UnpackCacheEntries)
	h.rows = make(map[roadnet.EdgeID]*hierRow)
	h.lru = list.New()
	h.miss = make(map[roadnet.EdgeID]int)
}

// Graph returns the underlying road network.
func (h *Hier) Graph() *roadnet.Graph { return h.g }

// ArcCount returns the total arc count (original + shortcuts).
func (h *Hier) ArcCount() int { return h.numArcs }

// Mapped reports whether the hierarchy is served from a read-only file
// mapping (true only for OpenHierMapped).
func (h *Hier) Mapped() bool { return h.mappedLen > 0 }

// Close releases the file mapping, if any. A heap-built Hier needs no Close.
// Idempotent; the Hier must not be queried after Close.
func (h *Hier) Close() error {
	if h.unmap == nil {
		return nil
	}
	u := h.unmap
	h.unmap = nil
	h.rank, h.arcs = nil, nil
	h.fwdIdx, h.fwdList, h.bwdIdx, h.bwdList = nil, nil, nil, nil
	return u()
}

// ensure runs the one-time payload validation of a mapped Hier. It returns
// false when the snapshot payload is damaged, in which case every query
// degrades to exact Dijkstra rows through the LRU — slower, still correct,
// still memory-bounded. EnsureValid exposes the verdict.
func (h *Hier) ensure() bool {
	if h.payloadCheck == nil {
		return true
	}
	h.checkOnce.Do(func() { h.checkErr = h.payloadCheck() })
	return h.checkErr == nil
}

// EnsureValid forces the first-touch payload validation of a mapped Hier
// and reports its result (always nil for a heap-built Hier). Callers with
// cache semantics — where a damaged file should be regenerated, not served
// degraded — call this right after OpenHierMapped; a cold-booting daemon
// skips it so open stays header-only.
func (h *Hier) EnsureValid() error {
	h.ensure()
	return h.checkErr
}

// --- Flat-section accessors -------------------------------------------------

func (h *Hier) arcFrom(a int32) int32 {
	return int32(binary.LittleEndian.Uint32(h.arcs[hierArcBytes*int(a):]))
}

func (h *Hier) arcTo(a int32) int32 {
	return int32(binary.LittleEndian.Uint32(h.arcs[hierArcBytes*int(a)+4:]))
}

func (h *Hier) arcLeft(a int32) int32 {
	return int32(binary.LittleEndian.Uint32(h.arcs[hierArcBytes*int(a)+8:]))
}

func (h *Hier) arcRight(a int32) int32 {
	return int32(binary.LittleEndian.Uint32(h.arcs[hierArcBytes*int(a)+12:]))
}

func (h *Hier) arcWeight(a int32) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(h.arcs[hierArcBytes*int(a)+16:]))
}

func (h *Hier) fwdRange(v int32) (uint32, uint32) {
	return binary.LittleEndian.Uint32(h.fwdIdx[4*int(v):]),
		binary.LittleEndian.Uint32(h.fwdIdx[4*int(v)+4:])
}

func (h *Hier) bwdRange(v int32) (uint32, uint32) {
	return binary.LittleEndian.Uint32(h.bwdIdx[4*int(v):]),
		binary.LittleEndian.Uint32(h.bwdIdx[4*int(v)+4:])
}

func (h *Hier) fwdArcAt(i uint32) int32 {
	return int32(binary.LittleEndian.Uint32(h.fwdList[4*int(i):]))
}

func (h *Hier) bwdArcAt(i uint32) int32 {
	return int32(binary.LittleEndian.Uint32(h.bwdList[4*int(i):]))
}

// --- Query context ----------------------------------------------------------

// hierCtx holds one query's scratch state: epoch-stamped distance/parent
// arrays (no clearing between queries) and reusable heaps and unpack
// buffers, pooled so concurrent queries allocate nothing steady-state.
type hierCtx struct {
	df, db []float64
	pf, pb []int32
	sf, sb []uint32
	epoch  uint32
	hf, hb nodeHeap
	chain  []int32
	stack  []int32
	nodes  []roadnet.EdgeID
}

func (h *Hier) getCtx() *hierCtx {
	if c, ok := h.ctxPool.Get().(*hierCtx); ok && len(c.df) >= h.n {
		return c
	}
	n := h.n
	return &hierCtx{
		df: make([]float64, n), db: make([]float64, n),
		pf: make([]int32, n), pb: make([]int32, n),
		sf: make([]uint32, n), sb: make([]uint32, n),
	}
}

func (h *Hier) putCtx(c *hierCtx) { h.ctxPool.Put(c) }

func (c *hierCtx) nextEpoch() {
	c.epoch++
	if c.epoch == 0 {
		for i := range c.sf {
			c.sf[i] = 0
			c.sb[i] = 0
		}
		c.epoch = 1
	}
}

func (c *hierCtx) hasF(v int32) bool { return c.sf[v] == c.epoch }
func (c *hierCtx) hasB(v int32) bool { return c.sb[v] == c.epoch }

func (c *hierCtx) setF(v int32, d float64, parent int32) {
	c.df[v], c.pf[v], c.sf[v] = d, parent, c.epoch
}

func (c *hierCtx) setB(v int32, d float64, parent int32) {
	c.db[v], c.pb[v], c.sb[v] = d, parent, c.epoch
}

// runQuery executes the bidirectional upward search from s (forward) and t
// (backward). It returns the best meeting node, or -1 when t is unreachable
// from s; parent arcs for both trees are left in ctx for unpacking. The
// search is fully deterministic: heaps break ties by node id, and among
// equal-cost meetings the smaller node id wins.
func (h *Hier) runQuery(ctx *hierCtx, s, t int32) int32 {
	ctx.nextEpoch()
	f, b := &ctx.hf, &ctx.hb
	f.reset()
	b.reset()
	ctx.setF(s, 0, -1)
	f.push(0, s)
	ctx.setB(t, 0, -1)
	b.push(0, t)
	best := math.Inf(1)
	meet := int32(-1)
	for f.len() > 0 || b.len() > 0 {
		kf, kb := math.Inf(1), math.Inf(1)
		if f.len() > 0 {
			kf = f.minKey()
		}
		if b.len() > 0 {
			kb = b.minKey()
		}
		k := kf
		if kb < k {
			k = kb
		}
		if k >= best {
			break
		}
		if kf <= kb {
			d, v := f.pop()
			if d > ctx.df[v] || ctx.sf[v] != ctx.epoch {
				continue // stale heap entry
			}
			if ctx.hasB(v) {
				if sum := d + ctx.db[v]; sum < best || (sum == best && v < meet) {
					best, meet = sum, v
				}
			}
			lo, hi := h.fwdRange(v)
			for i := lo; i < hi; i++ {
				a := h.fwdArcAt(i)
				to := h.arcTo(a)
				nd := d + h.arcWeight(a)
				if !ctx.hasF(to) || nd < ctx.df[to] {
					ctx.setF(to, nd, a)
					f.push(nd, to)
				}
			}
		} else {
			d, v := b.pop()
			if d > ctx.db[v] || ctx.sb[v] != ctx.epoch {
				continue
			}
			if ctx.hasF(v) {
				if sum := d + ctx.df[v]; sum < best || (sum == best && v < meet) {
					best, meet = sum, v
				}
			}
			lo, hi := h.bwdRange(v)
			for i := lo; i < hi; i++ {
				a := h.bwdArcAt(i)
				from := h.arcFrom(a)
				nd := d + h.arcWeight(a)
				if !ctx.hasB(from) || nd < ctx.db[from] {
					ctx.setB(from, nd, a)
					b.push(nd, from)
				}
			}
		}
	}
	return meet
}

// unpackArc appends the original line-graph nodes an arc covers (the To
// node of every constituent original arc, in path order) to out. Shortcuts
// reference strictly smaller arc ids, so the explicit stack always shrinks
// toward originals.
func (h *Hier) unpackArc(ctx *hierCtx, out []roadnet.EdgeID, arc int32) []roadnet.EdgeID {
	stack := ctx.stack[:0]
	stack = append(stack, arc)
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if l := h.arcLeft(a); l >= 0 {
			// A sub-shortcut may already be memoized; the top-level arc
			// was consulted by unpackArcTop, so skip it here rather than
			// tallying its miss twice.
			if a != arc {
				if nodes, ok := h.unpack.get(a); ok {
					out = append(out, nodes...)
					continue
				}
			}
			// Push right first so left unpacks first (LIFO).
			stack = append(stack, h.arcRight(a), l)
			continue
		}
		out = append(out, roadnet.EdgeID(h.arcTo(a)))
	}
	ctx.stack = stack[:0]
	return out
}

// unpackArcTop is unpackArc fronted by the unpack cache: a hit appends the
// memoized expansion straight into out; a miss runs the recursion and
// memoizes the freshly produced span.
func (h *Hier) unpackArcTop(ctx *hierCtx, out []roadnet.EdgeID, arc int32) []roadnet.EdgeID {
	if h.arcLeft(arc) < 0 {
		return append(out, roadnet.EdgeID(h.arcTo(arc)))
	}
	if nodes, ok := h.unpack.get(arc); ok {
		return append(out, nodes...)
	}
	start := len(out)
	out = h.unpackArc(ctx, out, arc)
	h.unpack.put(arc, out[start:])
	return out
}

// pathNodes reconstructs the full original-node path s…t for the meeting
// node runQuery produced, into ctx.nodes (reused across queries).
func (h *Hier) pathNodes(ctx *hierCtx, s, t, meet int32) []roadnet.EdgeID {
	chain := ctx.chain[:0]
	for v := meet; v != s; {
		a := ctx.pf[v]
		chain = append(chain, a)
		v = h.arcFrom(a)
	}
	nodes := ctx.nodes[:0]
	nodes = append(nodes, roadnet.EdgeID(s))
	for i := len(chain) - 1; i >= 0; i-- {
		nodes = h.unpackArcTop(ctx, nodes, chain[i])
	}
	for v := meet; v != t; {
		a := ctx.pb[v]
		nodes = h.unpackArcTop(ctx, nodes, a)
		v = h.arcTo(a)
	}
	ctx.chain = chain
	ctx.nodes = nodes
	return nodes
}

// resum accumulates the path's weights exactly as dijkstraRow does: left to
// right, one fl-rounded addition per node after the source. This — not the
// CH-ordered sum the search minimized — is the distance Hier reports, which
// is what makes it bit-compatible with Table.
func (h *Hier) resum(nodes []roadnet.EdgeID) float64 {
	d := 0.0
	for _, e := range nodes[1:] {
		d += h.g.Edge(e).Weight
	}
	return d
}

// chDist runs one CH query and returns the canonical (re-summed) distance,
// +Inf when unreachable. Callers must already hold a valid (ensure() true)
// hierarchy and handle src == dst themselves when it matters; here it is 0.
func (h *Hier) chDist(ctx *hierCtx, src, dst roadnet.EdgeID) float64 {
	if src == dst {
		return 0
	}
	meet := h.runQuery(ctx, int32(src), int32(dst))
	if meet < 0 {
		return math.Inf(1)
	}
	return h.resum(h.pathNodes(ctx, int32(src), int32(dst), meet))
}

// --- Row LRU ----------------------------------------------------------------

// peekRow returns the cached row for src, if any, refreshing its LRU slot.
// When countMiss is set, a miss is tallied against src and expand reports
// whether the source crossed the expansion threshold.
func (h *Hier) peekRow(src roadnet.EdgeID, countMiss bool) (r *hierRow, expand bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if r := h.rows[src]; r != nil {
		h.lru.MoveToFront(r.elem)
		return r, false
	}
	if countMiss {
		h.miss[src]++
		return nil, h.miss[src] >= h.expandAfter
	}
	return nil, false
}

// expandRow materializes (or re-touches) the exact Dijkstra row for src in
// the LRU. Rows are immutable once published; concurrent expanders of the
// same source keep the first row, exactly like Table.
func (h *Hier) expandRow(src roadnet.EdgeID) *hierRow {
	h.mu.Lock()
	if r := h.rows[src]; r != nil {
		h.lru.MoveToFront(r.elem)
		h.mu.Unlock()
		return r
	}
	h.mu.Unlock()
	pred, dist := dijkstraRow(h.g, src)
	h.mu.Lock()
	defer h.mu.Unlock()
	if r := h.rows[src]; r != nil {
		h.lru.MoveToFront(r.elem)
		return r
	}
	r := &hierRow{pred: pred, dist: dist}
	r.elem = h.lru.PushFront(src)
	h.rows[src] = r
	// A fresh row clears the miss tally; an evicted-then-hot source keeps
	// its count and re-expands on the next touch.
	delete(h.miss, src)
	for len(h.rows) > h.rowCap {
		back := h.lru.Back()
		evicted := back.Value.(roadnet.EdgeID)
		h.lru.Remove(back)
		delete(h.rows, evicted)
	}
	return r
}

// CachedRows returns how many expanded Dijkstra rows the LRU currently
// holds (bounded by HierOptions.RowCacheRows).
func (h *Hier) CachedRows() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.rows)
}

// MemoryBytes estimates the Go-heap bytes the hierarchy holds: the flat CH
// sections (when heap-built; a mapped Hier counts them in MappedBytes
// instead), plus expanded LRU rows and the miss tally. This is the number
// TestHierMemoryScalesLinearly holds against Table's O(|E|²) rows.
func (h *Hier) MemoryBytes() int {
	total := 0
	if h.mappedLen == 0 {
		total += len(h.rank) + len(h.arcs) +
			len(h.fwdIdx) + len(h.fwdList) + len(h.bwdIdx) + len(h.bwdList)
	}
	_, _, unpackBytes := h.unpack.stats()
	total += unpackBytes
	h.mu.Lock()
	defer h.mu.Unlock()
	return total + h.rowCacheBytesLocked()
}

// hierRowOverhead approximates the per-row bookkeeping bytes beyond the
// pred/dist arrays themselves: the hierRow struct (slice headers + element
// pointer), its list.Element, and a map-bucket share. Pinned by
// TestHierRowCacheBytesExact against manual accounting.
const hierRowOverhead = 120

// rowCacheBytesLocked sums the exact-row LRU's heap bytes: the pred/dist
// arrays, per-row bookkeeping, and the miss tally. Callers hold h.mu.
func (h *Hier) rowCacheBytesLocked() int {
	total := 0
	for _, r := range h.rows {
		total += cap(r.pred)*edgeIDBytes + sliceHeaderBytes
		total += cap(r.dist)*float64Bytes + sliceHeaderBytes
		total += hierRowOverhead
	}
	total += len(h.miss) * (edgeIDBytes + 8)
	return total
}

// RowCacheBytes reports the heap bytes held by the hot-source exact-row LRU
// (rows plus bookkeeping plus the miss tally). Part of MemoryBytes; broken
// out so SPStats can account for the cache explicitly.
func (h *Hier) RowCacheBytes() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rowCacheBytesLocked()
}

// WitnessCap reports the resolved witness settle cap the build used (or, for
// a mapped Hier, the cap the options would resolve to on this graph).
func (h *Hier) WitnessCap() int { return h.witnessCap }

// BuildWorkers reports how many goroutines contraction ran on (0 for a
// mapped Hier, which did no contraction in this process).
func (h *Hier) BuildWorkers() int { return h.buildWorkers }

// UnpackCacheStats reports the unpack LRU's hit/miss counters and current
// heap bytes (all zero when the cache is disabled).
func (h *Hier) UnpackCacheStats() (hits, misses uint64, bytes int) {
	return h.unpack.stats()
}

// MappedBytes reports the bytes served from the read-only snapshot mapping
// (0 for a heap-built Hier).
func (h *Hier) MappedBytes() int { return h.mappedLen }

// --- SP contract ------------------------------------------------------------

// SPEnd returns the edge right before dst on the canonical shortest path
// from src to dst, or NoEdge when dst is unreachable from src or src == dst.
func (h *Hier) SPEnd(src, dst roadnet.EdgeID) roadnet.EdgeID {
	if src == dst {
		return roadnet.NoEdge
	}
	r, expand := h.peekRow(src, true)
	if r != nil {
		return r.pred[dst]
	}
	if expand || !h.ensure() {
		return h.expandRow(src).pred[dst]
	}
	ctx := h.getCtx()
	defer h.putCtx(ctx)
	d := h.chDist(ctx, src, dst)
	if math.IsInf(d, 1) {
		return roadnet.NoEdge
	}
	// Canonical local rule: Table's pred[dst] is the smallest in-edge p of
	// From(dst) whose relaxation reproduces D(dst) and which Table settled
	// before finishing dst.
	wdst := h.g.Edge(dst).Weight
	best := roadnet.NoEdge
	for _, p := range h.g.In(h.g.Edge(dst).From) {
		if p == dst || (best != roadnet.NoEdge && p >= best) {
			continue
		}
		dp := h.chDist(ctx, src, p)
		if math.IsInf(dp, 1) || dp+wdst != d {
			continue
		}
		if !(dp < d || (dp == d && p < dst)) {
			continue
		}
		best = p
	}
	if best == roadnet.NoEdge {
		// The local rule can only come up empty if CH distances strayed
		// from Table's (see the near-tie caveat in the type comment).
		// Fall back to the exact row so the answer stays canonical.
		return h.expandRow(src).pred[dst]
	}
	return best
}

// Dist returns the shortest-path distance from src to dst under the same
// convention — and the same float accumulation — as Table.Dist.
func (h *Hier) Dist(src, dst roadnet.EdgeID) float64 {
	if src == dst {
		return 0
	}
	if r, _ := h.peekRow(src, false); r != nil {
		return r.dist[dst]
	}
	if !h.ensure() {
		return h.expandRow(src).dist[dst]
	}
	ctx := h.getCtx()
	defer h.putCtx(ctx)
	return h.chDist(ctx, src, dst)
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
// of both endpoints. Returns nil when unreachable. The walk chains SPEnd
// lookups, so a long path trips the expansion threshold and finishes
// against the exact row.
func (h *Hier) Path(src, dst roadnet.EdgeID) []roadnet.EdgeID {
	if src == dst {
		return []roadnet.EdgeID{src}
	}
	if r, _ := h.peekRow(src, false); r != nil {
		return h.walkRow(r, src, dst)
	}
	if !h.ensure() {
		return h.walkRow(h.expandRow(src), src, dst)
	}
	if !h.Reachable(src, dst) {
		return nil
	}
	rev := make([]roadnet.EdgeID, 0, 8)
	for cur := dst; cur != src; {
		rev = append(rev, cur)
		if len(rev) > h.n {
			return nil
		}
		p := h.SPEnd(src, cur)
		if p == roadnet.NoEdge {
			return nil
		}
		cur = p
	}
	rev = append(rev, src)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// walkRow reconstructs a path from an expanded row, like Table.Path.
func (h *Hier) walkRow(r *hierRow, src, dst roadnet.EdgeID) []roadnet.EdgeID {
	if math.IsInf(r.dist[dst], 1) {
		return nil
	}
	var rev []roadnet.EdgeID
	for cur := dst; cur != src; cur = r.pred[cur] {
		if cur == roadnet.NoEdge || len(rev) > h.n {
			return nil
		}
		rev = append(rev, cur)
	}
	rev = append(rev, src)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Reachable reports whether dst can be reached from src. It needs no
// unpacking: any meeting node proves reachability.
func (h *Hier) Reachable(src, dst roadnet.EdgeID) bool {
	if src == dst {
		return true
	}
	if r, _ := h.peekRow(src, false); r != nil {
		return !math.IsInf(r.dist[dst], 1)
	}
	if !h.ensure() {
		return !math.IsInf(h.expandRow(src).dist[dst], 1)
	}
	ctx := h.getCtx()
	defer h.putCtx(ctx)
	return h.runQuery(ctx, int32(src), int32(dst)) >= 0
}

// --- Deterministic binary heap ---------------------------------------------

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

func (q *nodeHeap) minKey() float64 { return q.key[0] }

func (q *nodeHeap) peek() (float64, int32) { return q.key[0], q.id[0] }

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
