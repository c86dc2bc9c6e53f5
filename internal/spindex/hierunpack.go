package spindex

// Query-side caches: the bounded LRU of unpacked shortcut expansions.
//
// Unpacking a shortcut is the recursive half of every Dist/GapDist answer
// (SPEnd and Path never touch the hierarchy) — the bidirectional search
// itself settles a few dozen nodes, but a long shortcut can expand to
// thousands of original arcs. Workloads are skewed (fleets traverse the same
// arterials), so the same high-rank shortcuts unpack over and over. The
// cache memoizes the expansion keyed by arc id; entries are immutable
// copies, so hits append straight into the caller's reused node buffer with
// zero allocations.
//
// Correctness is free: an expansion is a pure function of the (immutable)
// arc sections, so a hit is byte-for-byte the recursion's output. The cache
// never influences which path is chosen — only how fast it is spelled out.

import (
	"container/list"
	"sync"
	"sync/atomic"

	"press/internal/roadnet"
)

// defaultUnpackCacheEntries bounds the unpack LRU when the knob is zero. At
// a typical few-hundred-byte expansion this is on the order of 1 MiB —
// noise next to the CH sections, decisive on repeat-heavy query mixes.
const defaultUnpackCacheEntries = 2048

// unpackEntryOverhead approximates the per-entry bookkeeping bytes beyond
// the node payload: the entry struct, its list element, and a map-bucket
// share. Used only for stats accounting.
const unpackEntryOverhead = 96

type unpackEntry struct {
	nodes []roadnet.EdgeID
	elem  *list.Element
}

// unpackCache is a mutex-guarded LRU of shortcut expansions. A nil
// *unpackCache (unpackCacheEntries < 0) disables caching; every method is
// nil-receiver safe.
type unpackCache struct {
	mu    sync.Mutex
	cap   int
	items map[int32]*unpackEntry
	ll    *list.List // of int32 arc ids, front = most recently used
	nodes int        // total cached nodes, for byte accounting

	hits   atomic.Uint64
	misses atomic.Uint64
}

// newUnpackCache sizes the cache from HierOptions.unpackCacheEntries: 0 picks the
// default, negative disables (returns nil).
func newUnpackCache(entries int) *unpackCache {
	if entries < 0 {
		return nil
	}
	if entries == 0 {
		entries = defaultUnpackCacheEntries
	}
	return &unpackCache{
		cap:   entries,
		items: make(map[int32]*unpackEntry),
		ll:    list.New(),
	}
}

// get returns the cached expansion of arc, refreshing its LRU slot. The
// returned slice is immutable; callers append its contents, never retain it.
func (c *unpackCache) get(arc int32) ([]roadnet.EdgeID, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	e := c.items[arc]
	if e == nil {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(e.elem)
	c.mu.Unlock()
	c.hits.Add(1)
	return e.nodes, true
}

// put stores a copy of nodes as the expansion of arc, evicting from the LRU
// tail past capacity. Racing puts for the same arc keep the first entry.
func (c *unpackCache) put(arc int32, nodes []roadnet.EdgeID) {
	if c == nil || len(nodes) == 0 {
		return
	}
	cp := make([]roadnet.EdgeID, len(nodes))
	copy(cp, nodes)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.items[arc] != nil {
		return
	}
	e := &unpackEntry{nodes: cp}
	e.elem = c.ll.PushFront(arc)
	c.items[arc] = e
	c.nodes += len(cp)
	for len(c.items) > c.cap {
		back := c.ll.Back()
		evicted := back.Value.(int32)
		c.ll.Remove(back)
		c.nodes -= len(c.items[evicted].nodes)
		delete(c.items, evicted)
	}
}

// stats returns the hit/miss counters and an estimate of the heap bytes the
// cache currently holds.
func (c *unpackCache) stats() (hits, misses uint64, bytes int) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	bytes = c.nodes*edgeIDBytes + len(c.items)*(unpackEntryOverhead+sliceHeaderBytes)
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), bytes
}
