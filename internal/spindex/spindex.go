// Package spindex implements the shortest-path substrate of PRESS: the
// all-pair edge-to-edge shortest paths and the SPend table of §3.1.
//
// The paper assumes "all-pair shortest path information is available via a
// pre-processing of the road network" and that, for each pair of edges
// (e_i, e_j), SPend(e_i, e_j) — the edge right before e_j on the shortest
// path from e_i to e_j — can be looked up in O(1).
//
// We realize this by running Dijkstra on the line graph (edges as nodes;
// relaxing from edge a to a successor edge b costs w(b)), so the Dijkstra
// predecessor of e_j is exactly SPend(e_i, e_j). Rows are materialized per
// source edge and cached under a read-write lock, which gives O(1) amortized
// lookups during compression while keeping memory proportional to the number
// of distinct source edges actually touched. Table.PrecomputeAll forces the
// full |E|×|E| materialization the paper describes for smaller networks.
//
// Ties are broken deterministically (smaller distance, then smaller
// predecessor edge id) so there is a single canonical shortest path per edge
// pair, eliminating the ambiguity §3.1 warns about.
//
// Consumers program against the SP interface (sp.go). Hier (hier.go) is the
// source the system serves: dijkstraRow's loop run from the source and
// stopped when the destination settles, so it needs no rows at all and
// answers exactly as Table does; its From resumes that loop for each next
// destination. Table stays as the test oracle and the paper-preprocessing
// axis of the experiments.
package spindex

import (
	"container/heap"
	"math"
	"runtime"
	"sync"

	"press/internal/roadnet"
)

// Table provides SPend, shortest-path distances and path reconstruction
// between directed edges. It is safe for concurrent use.
type Table struct {
	g *roadnet.Graph

	mu   sync.RWMutex
	pred map[roadnet.EdgeID][]roadnet.EdgeID
	dist map[roadnet.EdgeID][]float64
}

// NewTable creates an empty (lazily populated) table over g.
func NewTable(g *roadnet.Graph) *Table {
	return &Table{
		g:    g,
		pred: make(map[roadnet.EdgeID][]roadnet.EdgeID),
		dist: make(map[roadnet.EdgeID][]float64),
	}
}

// Graph returns the underlying road network.
func (t *Table) Graph() *roadnet.Graph { return t.g }

// row returns (and computes if needed) the Dijkstra row for source edge src.
func (t *Table) row(src roadnet.EdgeID) ([]roadnet.EdgeID, []float64) {
	t.mu.RLock()
	p, ok := t.pred[src]
	d := t.dist[src]
	t.mu.RUnlock()
	if ok {
		return p, d
	}
	p, d = t.computeRow(src)
	t.mu.Lock()
	// Another goroutine may have raced us; keep the first row (identical
	// anyway, computation is deterministic).
	if prev, ok := t.pred[src]; ok {
		p, d = prev, t.dist[src]
	} else {
		t.pred[src] = p
		t.dist[src] = d
	}
	t.mu.Unlock()
	return p, d
}

// pqItem is a priority-queue entry for the line-graph Dijkstra.
type pqItem struct {
	edge roadnet.EdgeID
	dist float64
}

type pq []pqItem

func (q pq) Len() int { return len(q) }
func (q pq) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].edge < q[j].edge
}
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// computeRow runs deterministic Dijkstra on the line graph from src.
// dist[dst] is the network distance accumulated over every edge of
// SP(src, dst) except src itself (so dist[src] = 0 and for adjacent edges
// dist equals w(dst)); pred[dst] is SPend(src, dst).
func (t *Table) computeRow(src roadnet.EdgeID) ([]roadnet.EdgeID, []float64) {
	return dijkstraRow(t.g, src)
}

// dijkstraRow is the canonical line-graph Dijkstra: Table materializes rows
// with it, and Hier.settle runs the same loop, stopped when the destination
// settles, for every SP question. The relaxation order (binary heap keyed by
// (dist, edge id)) and the tie-break rule (smaller distance, then smaller
// predecessor id) define the single canonical shortest path per pair; any
// alternative implementation must reproduce its output bit for bit. It stays
// a separate, independent oracle: the Hier tests compare against it.
func dijkstraRow(g *roadnet.Graph, src roadnet.EdgeID) ([]roadnet.EdgeID, []float64) {
	n := g.NumEdges()
	dist := make([]float64, n)
	pred := make([]roadnet.EdgeID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		pred[i] = roadnet.NoEdge
	}
	dist[src] = 0
	q := &pq{{src, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if done[it.edge] {
			continue
		}
		done[it.edge] = true
		head := g.Edge(it.edge).To
		for _, next := range g.Out(head) {
			if done[next] {
				continue
			}
			nd := it.dist + g.Edge(next).Weight
			if nd < dist[next] || (nd == dist[next] && it.edge < pred[next]) {
				dist[next] = nd
				pred[next] = it.edge
				heap.Push(q, pqItem{next, nd})
			}
		}
	}
	return pred, dist
}

// SPEnd returns the edge right before dst on the canonical shortest path
// from src to dst, or NoEdge when dst is unreachable from src or src == dst.
func (t *Table) SPEnd(src, dst roadnet.EdgeID) roadnet.EdgeID {
	p, _ := t.row(src)
	return p[dst]
}

// From returns src's row as a Search.
func (t *Table) From(src roadnet.EdgeID) Search {
	p, _ := t.row(src)
	return tableRow(p)
}

// tableRow is one materialized pred row answering as a Search.
type tableRow []roadnet.EdgeID

func (r tableRow) SPEnd(dst roadnet.EdgeID) roadnet.EdgeID { return r[dst] }

func (tableRow) Close() {}

// Dist returns the shortest-path distance from src to dst, accumulated over
// every edge of the path except src itself (0 when src == dst, +Inf when
// unreachable). Interpreted on the ground: the network distance from the end
// of src to the end of dst.
func (t *Table) Dist(src, dst roadnet.EdgeID) float64 {
	_, d := t.row(src)
	return d[dst]
}

// GapDist returns the distance covered by the interior of SP(src, dst):
// the edges strictly between src and dst. It is what a decompressor inserts
// between two retained edges. Returns 0 for adjacent edges and +Inf when
// unreachable.
func (t *Table) GapDist(src, dst roadnet.EdgeID) float64 {
	d := t.Dist(src, dst)
	if math.IsInf(d, 1) {
		return d
	}
	if src == dst {
		return 0
	}
	return d - t.g.Edge(dst).Weight
}

// Path reconstructs the canonical shortest path from src to dst, inclusive
// of both endpoints. Returns nil when unreachable.
func (t *Table) Path(src, dst roadnet.EdgeID) []roadnet.EdgeID {
	if src == dst {
		return []roadnet.EdgeID{src}
	}
	p, d := t.row(src)
	if math.IsInf(d[dst], 1) {
		return nil
	}
	// Walk SPend links backward, then reverse.
	var rev []roadnet.EdgeID
	for cur := dst; cur != src; cur = p[cur] {
		rev = append(rev, cur)
	}
	rev = append(rev, src)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Reachable reports whether dst can be reached from src.
func (t *Table) Reachable(src, dst roadnet.EdgeID) bool {
	return !math.IsInf(t.Dist(src, dst), 1)
}

// precomputeBatch is the batched write path for bulk materialization: one
// lock acquisition stores many rows, so worker pools do not serialize on
// per-row lock churn. Rows already present are kept (computation is
// deterministic, so they are identical anyway).
func (t *Table) precomputeBatch(srcs []roadnet.EdgeID, preds [][]roadnet.EdgeID, dists [][]float64) {
	t.mu.Lock()
	for i, src := range srcs {
		if _, ok := t.pred[src]; ok {
			continue
		}
		t.pred[src] = preds[i]
		t.dist[src] = dists[i]
	}
	t.mu.Unlock()
}

// precomputeBatchSize bounds how many rows a worker accumulates locally
// before flushing them under one lock acquisition.
const precomputeBatchSize = 32

// PrecomputeAll materializes every row, realizing the paper's full all-pair
// preprocessing. Memory is O(|E|^2); use only on moderate networks. The work
// is sharded over GOMAXPROCS workers — each line-graph Dijkstra row is
// independent, which is exactly the parallelism the paper's preprocessing
// assumes.
func (t *Table) PrecomputeAll() {
	t.PrecomputeAllParallel(runtime.GOMAXPROCS(0))
}

// PrecomputeAllParallel materializes every row using the given number of
// workers (<=1 means serial). Source edges are dealt to workers in
// contiguous shards; each worker runs its Dijkstra rows without any lock
// held and flushes results in batches through the batched write path.
// The resulting table is byte-identical to serial materialization.
func (t *Table) PrecomputeAllParallel(workers int) {
	n := t.g.NumEdges()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		buf := newBatchBuf(t)
		for e := 0; e < n; e++ {
			buf.add(roadnet.EdgeID(e))
		}
		buf.flush()
		return
	}
	var wg sync.WaitGroup
	var next int64
	var nextMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := newBatchBuf(t)
			for {
				// Claim a contiguous shard of source edges.
				nextMu.Lock()
				lo := int(next)
				if lo >= n {
					nextMu.Unlock()
					break
				}
				hi := lo + precomputeBatchSize
				if hi > n {
					hi = n
				}
				next = int64(hi)
				nextMu.Unlock()
				for e := lo; e < hi; e++ {
					buf.add(roadnet.EdgeID(e))
				}
				buf.flush()
			}
		}()
	}
	wg.Wait()
}

// batchBuf accumulates computed rows and stores them with one lock
// acquisition per flush.
type batchBuf struct {
	t     *Table
	srcs  []roadnet.EdgeID
	preds [][]roadnet.EdgeID
	dists [][]float64
}

func newBatchBuf(t *Table) *batchBuf {
	return &batchBuf{
		t:     t,
		srcs:  make([]roadnet.EdgeID, 0, precomputeBatchSize),
		preds: make([][]roadnet.EdgeID, 0, precomputeBatchSize),
		dists: make([][]float64, 0, precomputeBatchSize),
	}
}

func (b *batchBuf) add(src roadnet.EdgeID) {
	b.t.mu.RLock()
	_, ok := b.t.pred[src]
	b.t.mu.RUnlock()
	if ok {
		return
	}
	p, d := b.t.computeRow(src)
	b.srcs = append(b.srcs, src)
	b.preds = append(b.preds, p)
	b.dists = append(b.dists, d)
	if len(b.srcs) >= precomputeBatchSize {
		b.flush()
	}
}

func (b *batchBuf) flush() {
	if len(b.srcs) == 0 {
		return
	}
	b.t.precomputeBatch(b.srcs, b.preds, b.dists)
	b.srcs = b.srcs[:0]
	b.preds = b.preds[:0]
	b.dists = b.dists[:0]
}

// CachedRows returns how many source rows are currently materialized.
func (t *Table) CachedRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.pred)
}

// Sizes of the row components, for the MemoryBytes estimate.
const (
	edgeIDBytes      = 4 // roadnet.EdgeID is an int32
	float64Bytes     = 8
	sliceHeaderBytes = 24 // ptr + len + cap on 64-bit platforms
)

// MemoryBytes estimates the memory held by materialized rows, mirroring the
// paper's §6.2 discussion of auxiliary structure sizes. A row stores two
// backing arrays — pred ([]EdgeID, SPend links) and dist ([]float64) — plus
// their slice headers; the two maps are walked independently so the estimate
// stays honest even for a partially materialized table. Map bucket overhead
// is not modeled.
func (t *Table) MemoryBytes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	total := 0
	for _, p := range t.pred {
		total += cap(p)*edgeIDBytes + sliceHeaderBytes
	}
	for _, d := range t.dist {
		total += cap(d)*float64Bytes + sliceHeaderBytes
	}
	return total
}
