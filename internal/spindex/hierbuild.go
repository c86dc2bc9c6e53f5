package spindex

// Construction: deterministic batched parallel contraction.
//
// The build proceeds in rounds over the live (uncontracted) core. Each
// round:
//
//  1. scores any not-yet-scored node with the witness-estimated edge
//     difference (in parallel, on per-worker scratch); already-scored
//     nodes keep their cached priority even as neighbors contract;
//  2. selects the set of nodes that are strict (priority, id) minima over
//     their undirected 2-hop live neighborhood;
//  3. revalidates the candidates: each is rescored fresh (in parallel) and
//     deferred — cache updated, not contracted — if its priority worsened,
//     the batched analog of the sequential lazy-heap's rescore-on-pop;
//  4. computes each surviving member's shortcut plan concurrently —
//     witness searches treat every batch member as already contracted, so
//     removing the whole batch preserves shortest paths among the
//     survivors;
//  5. commits the batch sequentially in ascending node id: shortcut arcs
//     are appended to the arena in that canonical order, ranks assigned,
//     neighbors' deleted-counters bumped.
//
// Workers only change how the pure per-node computations of steps 1-4 are
// distributed over goroutines; every ordering decision — selection, commit
// order, arc ids, ranks — is a function of node ids and pre-round state.
// The resulting hierarchy, and therefore its PRSP v2 snapshot, is
// byte-identical at any worker count, which TestHierBuildDeterministic and
// FuzzHierBuildDeterminism pin.
//
// Why 2-hop independence is the right exclusion radius: batch members are
// never adjacent (so no member's arc set changes when a peer is removed),
// and no two members share a neighbor (a peer's shortcuts connect the
// peer's own neighbors, so they are never incident to another member or
// its neighbors — the (u, w) pair set each member plans against is exactly
// the post-round truth). Witness searches additionally exclude all batch
// members; a witness path a member can no longer see through a peer only
// costs a redundant shortcut, never a wrong distance. Correctness then
// follows from the standard single-node contraction argument applied in
// commit order: every witness consists of nodes ranked above the entire
// batch.

import (
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"press/internal/roadnet"
)

type chArc struct {
	from, to    int32
	weight      float64
	left, right int32 // constituent arena arcs of a shortcut, -1 for originals
}

// dedupe collapses parallel arcs toward one node to the minimum weight,
// with epoch-stamped O(1) lookups and a first-occurrence key list (arena
// order, so deterministic).
type dedupe struct {
	val   []float64
	arc   []int32
	stamp []uint32
	epoch uint32
	keys  []int32
}

func newDedupe(n int) *dedupe {
	return &dedupe{val: make([]float64, n), arc: make([]int32, n), stamp: make([]uint32, n)}
}

func (m *dedupe) reset() {
	m.epoch++
	if m.epoch == 0 {
		for i := range m.stamp {
			m.stamp[i] = 0
		}
		m.epoch = 1
	}
	m.keys = m.keys[:0]
}

func (m *dedupe) add(k int32, v float64, arc int32) {
	if m.stamp[k] != m.epoch {
		m.stamp[k] = m.epoch
		m.val[k], m.arc[k] = v, arc
		m.keys = append(m.keys, k)
		return
	}
	if v < m.val[k] {
		m.val[k], m.arc[k] = v, arc
	}
}

func (m *dedupe) get(k int32) (float64, int32) { return m.val[k], m.arc[k] }

// chScratch is one worker's private search state: the witness Dijkstra's
// epoch-stamped distance array and heap, plus the neighbor-dedupe maps.
// Steps 1 and 3 of a round hand each worker its own scratch, so the
// concurrent per-node computations share nothing mutable.
type chScratch struct {
	wDist  []float64
	wStamp []uint32
	wEpoch uint32
	wHeap  nodeHeap

	outD, inD *dedupe
}

func newCHScratch(n int) *chScratch {
	return &chScratch{
		wDist:  make([]float64, n),
		wStamp: make([]uint32, n),
		outD:   newDedupe(n),
		inD:    newDedupe(n),
	}
}

// chPlan is the commit-ready contraction of one batch node: the shortcut
// arcs it inserts (in deterministic neighbor order) and its unique live
// neighbor lists for the deleted-neighbor bookkeeping. Plans are computed
// concurrently against pre-round state and applied sequentially in
// canonical node order.
type chPlan struct {
	shortcuts []chArc
	inNbrs    []int32
	outNbrs   []int32
}

// chBuilder carries the mutable contraction state. Everything is slices and
// epoch stamps; the only map in the whole build is gone by encode time.
type chBuilder struct {
	g          *roadnet.Graph
	n          int
	workers    int
	witnessCap int
	rounds     int

	arcs       []chArc
	out, in    [][]int32 // arena arc ids by endpoint; stale entries filtered on use
	contracted []bool
	inBatch    []uint32 // round stamp: member of the batch being planned
	selStamp   []uint32 // round stamp: selected by localMin this round
	round      uint32
	delNbrs    []int32
	rank       []int32
	origArcs   int

	prio      []float64
	prioValid []bool

	scratch []*chScratch
	plans   []chPlan
	live    []int32
	batch   []int32
	stale   []int32
}

// hierWitnessSettleCapMax bounds the density-derived settle cap; past this
// the witness search costs more than the redundant shortcuts it avoids.
const hierWitnessSettleCapMax = 600

// resolveWitnessCap derives the witness settle cap from line-graph density
// when the knob is zero: 40 settled nodes per unit of average out-degree,
// clamped to [hierWitnessSettleCap, hierWitnessSettleCapMax]. Truncating a
// witness search only ever costs a redundant shortcut, so denser graphs —
// where real witnesses hide behind more relaxations — get a deeper search
// while sparse grids keep the old constant. Integer arithmetic on graph
// shape only, so the cap (and the hierarchy bytes it influences) stays
// deterministic.
func resolveWitnessCap(knob, numArcs, n int) int {
	if knob > 0 {
		return knob
	}
	if n == 0 {
		return hierWitnessSettleCap
	}
	c := 40 * numArcs / n
	if c < hierWitnessSettleCap {
		c = hierWitnessSettleCap
	}
	if c > hierWitnessSettleCapMax {
		c = hierWitnessSettleCapMax
	}
	return c
}

func newCHBuilder(g *roadnet.Graph, opt HierOptions) *chBuilder {
	n := g.NumEdges()
	workers := opt.BuildWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b := &chBuilder{
		g: g, n: n, workers: workers,
		out:        make([][]int32, n),
		in:         make([][]int32, n),
		contracted: make([]bool, n),
		inBatch:    make([]uint32, n),
		selStamp:   make([]uint32, n),
		delNbrs:    make([]int32, n),
		rank:       make([]int32, n),
		prio:       make([]float64, n),
		prioValid:  make([]bool, n),
	}
	// Original line-graph arcs: a→b for every successor edge b of a.
	// Self-arcs (an edge looping straight back onto itself) can never lie
	// on a shortest path with positive weights, so they are dropped here —
	// matching Dijkstra, which would never relax them to a better distance.
	for a := 0; a < n; a++ {
		head := g.Edge(roadnet.EdgeID(a)).To
		for _, next := range g.Out(head) {
			if int(next) == a {
				continue
			}
			id := int32(len(b.arcs))
			b.arcs = append(b.arcs, chArc{int32(a), int32(next), g.Edge(next).Weight, -1, -1})
			b.out[a] = append(b.out[a], id)
			b.in[next] = append(b.in[next], id)
		}
	}
	b.origArcs = len(b.arcs)
	b.witnessCap = resolveWitnessCap(opt.witnessSettleCap, b.origArcs, n)
	return b
}

// witness runs a bounded Dijkstra from source through the uncontracted core
// — excluding the node being contracted and every current batch member —
// pruned at bound and capped at witnessCap settled nodes. Distances land in
// the scratch's epoch-stamped wDist array.
func (b *chBuilder) witness(s *chScratch, source, excluded int32, bound float64, settleCap int) {
	s.wEpoch++
	if s.wEpoch == 0 {
		for i := range s.wStamp {
			s.wStamp[i] = 0
		}
		s.wEpoch = 1
	}
	q := &s.wHeap
	q.reset()
	s.wDist[source] = 0
	s.wStamp[source] = s.wEpoch
	q.push(0, source)
	settled := 0
	for q.len() > 0 {
		d, x := q.pop()
		if d > bound {
			break
		}
		if s.wStamp[x] != s.wEpoch || d > s.wDist[x] {
			continue
		}
		settled++
		if settled > settleCap {
			break
		}
		for _, a := range b.out[x] {
			arc := &b.arcs[a]
			w := arc.to
			if w == excluded || b.contracted[w] || b.inBatch[w] == b.round {
				continue
			}
			nd := d + arc.weight
			if nd > bound {
				continue
			}
			if s.wStamp[w] != s.wEpoch || nd < s.wDist[w] {
				s.wDist[w] = nd
				s.wStamp[w] = s.wEpoch
				q.push(nd, w)
			}
		}
	}
}

func (s *chScratch) witnessDist(w int32) (float64, bool) {
	if s.wStamp[w] != s.wEpoch {
		return 0, false
	}
	return s.wDist[w], true
}

// collect computes the contraction of v against the current core: how many
// shortcuts it needs and how many live arcs it removes (the edge-difference
// inputs), and — when plan is non-nil — the commit-ready shortcut arcs and
// unique live neighbor lists. A shortcut u→w is needed when no witness path
// of cost at most c1+c2 avoids v; a witness search cut short by its caps
// just means a redundant shortcut, never a wrong distance. settleCap bounds
// each witness search: the full b.witnessCap when planning real shortcuts,
// a much smaller budget when only estimating a priority. Pure function of
// pre-round builder state plus the worker-private scratch.
func (b *chBuilder) collect(s *chScratch, v int32, plan *chPlan, settleCap int) (added, removed int) {
	outs, ins := s.outD, s.inD
	outs.reset()
	ins.reset()
	for _, a := range b.out[v] {
		arc := &b.arcs[a]
		if arc.to == v || b.contracted[arc.to] {
			continue
		}
		removed++
		outs.add(arc.to, arc.weight, a)
	}
	for _, a := range b.in[v] {
		arc := &b.arcs[a]
		if arc.from == v || b.contracted[arc.from] {
			continue
		}
		removed++
		ins.add(arc.from, arc.weight, a)
	}
	if plan != nil {
		plan.shortcuts = plan.shortcuts[:0]
		plan.inNbrs = append(plan.inNbrs[:0], ins.keys...)
		plan.outNbrs = append(plan.outNbrs[:0], outs.keys...)
	}
	if len(outs.keys) == 0 || len(ins.keys) == 0 {
		return added, removed
	}
	maxC2 := 0.0
	for _, w := range outs.keys {
		if c2, _ := outs.get(w); c2 > maxC2 {
			maxC2 = c2
		}
	}
	for _, u := range ins.keys {
		c1, inArc := ins.get(u)
		b.witness(s, u, v, c1+maxC2, settleCap)
		for _, w := range outs.keys {
			if w == u {
				continue
			}
			c2, outArc := outs.get(w)
			need := c1 + c2
			if wd, ok := s.witnessDist(w); ok && wd <= need {
				continue
			}
			added++
			if plan != nil {
				plan.shortcuts = append(plan.shortcuts, chArc{u, w, need, inArc, outArc})
			}
		}
	}
	return added, removed
}

// hierEstimateSettleCap bounds the witness searches inside a priority
// estimate. Scoring runs orders of magnitude more often than planning (every
// dirtied neighbor, every round), so it gets a small budget; the full
// b.witnessCap only applies when a selected node's real shortcuts are
// planned. The budget must stay a witness search rather than a pure local
// pair count: a pair-count estimate defers every hub to the end of the
// order, the surviving core densifies into near-clique, and planning those
// last contractions costs more than the whole rest of the build (measured
// 4x end-to-end on the 16x benchmark network).
const hierEstimateSettleCap = 24

// priorityOf is the importance heuristic: witness-estimated edge difference
// (shortcuts a contraction would add minus live arcs it removes) dominates,
// the deleted-neighbor count spreads contraction evenly. Smaller contracts
// first; ties break on node id in localMin, so the ordering — and with it
// every downstream byte — is deterministic. The estimate's truncated
// witness searches may overcount shortcuts, never undercount, so a cheap
// node is genuinely cheap.
func (b *chBuilder) priorityOf(s *chScratch, v int32) float64 {
	added, removed := b.collect(s, v, nil, hierEstimateSettleCap)
	return float64(2*(added-removed) + int(b.delNbrs[v]))
}

// localMin reports whether v strictly precedes — by (priority, id) — every
// live node within two undirected hops, making it safe to contract in the
// same round as every other such minimum. Read-only; duplicate visits just
// repeat a cheap comparison.
func (b *chBuilder) localMin(v int32) bool {
	pv := b.prio[v]
	beats := func(u int32) bool {
		return pv < b.prio[u] || (pv == b.prio[u] && v < u)
	}
	hop1 := func(w int32) bool {
		if w == v || b.contracted[w] {
			return true
		}
		if !beats(w) {
			return false
		}
		for _, a := range b.out[w] {
			x := b.arcs[a].to
			if x == v || x == w || b.contracted[x] {
				continue
			}
			if !beats(x) {
				return false
			}
		}
		for _, a := range b.in[w] {
			x := b.arcs[a].from
			if x == v || x == w || b.contracted[x] {
				continue
			}
			if !beats(x) {
				return false
			}
		}
		return true
	}
	for _, a := range b.out[v] {
		if !hop1(b.arcs[a].to) {
			return false
		}
	}
	for _, a := range b.in[v] {
		if !hop1(b.arcs[a].from) {
			return false
		}
	}
	return true
}

// forEachChunk is how many items a worker claims per atomic fetch.
const forEachChunk = 16

// forEach applies fn(scratch, i) for every i in [0, count), fanned out over
// the builder's workers. fn must be a pure function of pre-round state plus
// its private scratch: the partition of items over workers is timing-
// dependent and must not leak into any result.
func (b *chBuilder) forEach(count int, fn func(s *chScratch, i int)) {
	w := b.workers
	if w > count {
		w = count
	}
	if w <= 1 {
		s := b.scratch[0]
		for i := 0; i < count; i++ {
			fn(s, i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(s *chScratch) {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&next, forEachChunk)) - forEachChunk
				if lo >= count {
					return
				}
				hi := lo + forEachChunk
				if hi > count {
					hi = count
				}
				for i := lo; i < hi; i++ {
					fn(s, i)
				}
			}
		}(b.scratch[k])
	}
	wg.Wait()
}

// run contracts every node in batched independent-set rounds.
func (b *chBuilder) run() {
	if b.n == 0 {
		return
	}
	b.scratch = make([]*chScratch, b.workers)
	for i := range b.scratch {
		b.scratch[i] = newCHScratch(b.n)
	}
	order := int32(0)
	remaining := b.n
	for remaining > 0 {
		b.round++
		b.rounds++

		live := b.live[:0]
		for v := 0; v < b.n; v++ {
			if !b.contracted[v] {
				live = append(live, int32(v))
			}
		}
		// Lazy initial scoring: a node is scored the first time it is live
		// and then only rescored when it is actually about to contract (the
		// candidate-revalidation step below). Contractions dirty their
		// neighbors' cached priorities, but rescoring every dirtied node
		// every round dominates the whole build — the lazy-heap trick of the
		// sequential build, rescore-on-pop, carries over to batches as
		// rescore-on-select.
		stale := b.stale[:0]
		for _, v := range live {
			if !b.prioValid[v] {
				stale = append(stale, v)
			}
		}
		b.forEach(len(stale), func(s *chScratch, i int) {
			b.prio[stale[i]] = b.priorityOf(s, stale[i])
		})
		for _, v := range stale {
			b.prioValid[v] = true
		}

		// Selection: each check is independent and writes only its own
		// stamp slot. The global (priority, id) minimum is always a local
		// minimum, so every round selects at least one candidate.
		b.forEach(len(live), func(_ *chScratch, i int) {
			if b.localMin(live[i]) {
				b.selStamp[live[i]] = b.round
			}
		})
		cand := b.batch[:0]
		for _, v := range live {
			if b.selStamp[v] == b.round {
				cand = append(cand, v)
			}
		}
		// Revalidate candidates against the current core: cached priorities
		// go stale as neighbors contract, so rescore exactly the nodes about
		// to win and defer any whose priority worsened. A deferred candidate
		// keeps its fresh score; if nothing else changes around it, the next
		// round accepts it (fresh == cached), so every round still makes
		// progress. This caps scoring work at roughly two scores per node
		// for the whole build instead of one per dirtied neighbor per round.
		fresh := make([]float64, len(cand))
		b.forEach(len(cand), func(s *chScratch, i int) {
			fresh[i] = b.priorityOf(s, cand[i])
		})
		batch := cand[:0]
		for i, v := range cand {
			if fresh[i] <= b.prio[v] {
				batch = append(batch, v)
			} else {
				b.prio[v] = fresh[i]
			}
		}
		// Mark before planning so witness searches exclude every member.
		for _, v := range batch {
			b.inBatch[v] = b.round
		}
		for len(b.plans) < len(batch) {
			b.plans = append(b.plans, chPlan{})
		}
		plans := b.plans[:len(batch)]
		b.forEach(len(batch), func(s *chScratch, i int) {
			b.collect(s, batch[i], &plans[i], b.witnessCap)
		})

		// Commit in ascending node id (batch is scanned from an ascending
		// live list, so it already is): arc ids, ranks and neighbor
		// bookkeeping all derive from this one canonical order.
		for i, v := range batch {
			p := &plans[i]
			for _, sc := range p.shortcuts {
				id := int32(len(b.arcs))
				b.arcs = append(b.arcs, sc)
				b.out[sc.from] = append(b.out[sc.from], id)
				b.in[sc.to] = append(b.in[sc.to], id)
			}
			// Neighbors' cached priorities drift stale here on purpose —
			// candidate revalidation pays the rescore only when a node is
			// about to contract.
			for _, u := range p.inNbrs {
				b.delNbrs[u]++
			}
			for _, w := range p.outNbrs {
				b.delNbrs[w]++
			}
			b.rank[v] = order
			order++
			b.contracted[v] = true
		}
		remaining -= len(batch)
		b.live, b.batch, b.stale = live, batch, stale
	}
}

// encode freezes the contracted hierarchy into the flat little-endian
// sections the query path (and the snapshot writer) reads.
func (b *chBuilder) encode() *Hier {
	n := b.n
	h := &Hier{g: b.g, n: n, numArcs: len(b.arcs), shortcuts: len(b.arcs) - b.origArcs}

	h.rank = make([]byte, 4*n)
	for v, r := range b.rank {
		binary.LittleEndian.PutUint32(h.rank[4*v:], uint32(r))
	}

	h.arcs = make([]byte, hierArcBytes*len(b.arcs))
	for i := range b.arcs {
		a := &b.arcs[i]
		off := hierArcBytes * i
		binary.LittleEndian.PutUint32(h.arcs[off:], uint32(a.from))
		binary.LittleEndian.PutUint32(h.arcs[off+4:], uint32(a.to))
		binary.LittleEndian.PutUint32(h.arcs[off+8:], uint32(a.left))
		binary.LittleEndian.PutUint32(h.arcs[off+12:], uint32(a.right))
		binary.LittleEndian.PutUint64(h.arcs[off+16:], math.Float64bits(a.weight))
	}

	fwdCnt := make([]uint32, n+1)
	bwdCnt := make([]uint32, n+1)
	for i := range b.arcs {
		a := &b.arcs[i]
		if b.rank[a.from] < b.rank[a.to] {
			fwdCnt[a.from+1]++
		} else {
			bwdCnt[a.to+1]++
		}
	}
	for v := 1; v <= n; v++ {
		fwdCnt[v] += fwdCnt[v-1]
		bwdCnt[v] += bwdCnt[v-1]
	}
	fwdList := make([]uint32, fwdCnt[n])
	bwdList := make([]uint32, bwdCnt[n])
	fwdCur := make([]uint32, n)
	bwdCur := make([]uint32, n)
	copy(fwdCur, fwdCnt[:n])
	copy(bwdCur, bwdCnt[:n])
	for i := range b.arcs {
		a := &b.arcs[i]
		if b.rank[a.from] < b.rank[a.to] {
			fwdList[fwdCur[a.from]] = uint32(i)
			fwdCur[a.from]++
		} else {
			bwdList[bwdCur[a.to]] = uint32(i)
			bwdCur[a.to]++
		}
	}

	encodeU32 := func(vals []uint32) []byte {
		buf := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(buf[4*i:], v)
		}
		return buf
	}
	h.fwdIdx = encodeU32(fwdCnt)
	h.fwdList = encodeU32(fwdList)
	h.bwdIdx = encodeU32(bwdCnt)
	h.bwdList = encodeU32(bwdList)
	return h
}
