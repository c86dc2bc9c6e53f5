package query

import (
	"container/list"
	"sync"
	"sync/atomic"

	"press/internal/core"
	"press/internal/traj"
)

// Cache is the query layer's bounded LRU over per-vehicle derived state.
// It holds two kinds of entries, one key space per vehicle id:
//
//   - decoded records: the full unit sequence of a vehicle's compressed
//     trajectory (the FST decode the §5 queries walk) plus its temporal
//     sequence — a cache hit answers any single-vehicle query with zero
//     Huffman decoding;
//   - memoized summaries: a BoundingSummary computed for a record stored
//     without a summary, so the index never derives it twice.
//
// Every entry is pinned to the record revision it was derived from; a
// lookup whose revision no longer matches is a miss and evicts the stale
// entry, so re-appended vehicles can never serve old answers. Eviction is
// strict LRU by estimated bytes. All methods are safe for concurrent use.
type Cache struct {
	maxBytes int64

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element
	bytes int64

	hits, misses       atomic.Uint64 // decoded-record lookups
	sumHits, sumMisses atomic.Uint64 // memoized-summary lookups
	evictions          atomic.Uint64

	// Result memo: point answers for identical whereat/whenat requests.
	// Keys embed the record revision, so stale entries can never hit —
	// they age out of the LRU instead of needing invalidation.
	resMu    sync.Mutex
	resLL    *list.List // of resultKey, front = most recently used
	resItems map[resultKey]*resultEntry

	resHits, resMisses atomic.Uint64
}

// resultKind distinguishes the memoized point-query families.
type resultKind uint8

const (
	resultWhereAt resultKind = 1
	resultWhenAt  resultKind = 2
)

// resultKey identifies one memoized answer: the query family, the vehicle,
// the exact revision the answer was computed from, and the (exact-match)
// query arguments. whenat uses both float slots (x, y); whereat uses a.
type resultKey struct {
	id   uint64
	rev  uint64
	kind resultKind
	a, b float64
}

// resultEntry holds one memoized answer: whereat stores the point in
// (x, y); whenat stores the time in x. Query errors memoize too —
// recomputing them would fail identically at the same revision.
type resultEntry struct {
	x, y float64
	err  error
	elem *list.Element
}

// resultMemoEntries bounds the result memo. Entries are ~100 bytes, so the
// memo tops out around 400 KiB — small next to the decoded-record budget it
// shares a Cache with, decisive on repeat-heavy dashboards polling the same
// vehicles at the same timestamps.
const resultMemoEntries = 4096

// getResult returns the memoized answer for k, refreshing its LRU slot.
func (c *Cache) getResult(k resultKey) (x, y float64, err error, ok bool) {
	if c == nil {
		return 0, 0, nil, false
	}
	c.resMu.Lock()
	e := c.resItems[k]
	if e == nil {
		c.resMu.Unlock()
		c.resMisses.Add(1)
		return 0, 0, nil, false
	}
	c.resLL.MoveToFront(e.elem)
	c.resMu.Unlock()
	c.resHits.Add(1)
	return e.x, e.y, e.err, true
}

// putResult memoizes an answer. A key with a NaN argument is not
// memoized: it never compares equal to itself, so it could neither hit nor
// be evicted from the map.
func (c *Cache) putResult(k resultKey, x, y float64, err error) {
	if c == nil || k.a != k.a || k.b != k.b {
		return
	}
	c.resMu.Lock()
	defer c.resMu.Unlock()
	if c.resItems == nil {
		c.resLL = list.New()
		c.resItems = make(map[resultKey]*resultEntry)
	}
	if c.resItems[k] != nil {
		return
	}
	e := &resultEntry{x: x, y: y, err: err}
	e.elem = c.resLL.PushFront(k)
	c.resItems[k] = e
	for len(c.resItems) > resultMemoEntries {
		back := c.resLL.Back()
		evicted := back.Value.(resultKey)
		c.resLL.Remove(back)
		delete(c.resItems, evicted)
	}
}

type cacheKey struct {
	id      uint64
	summary bool // summary-only entry (decoded entries carry their own summary)
}

// cacheEntry is one LRU slot; exactly one of dec/sum is set.
type cacheEntry struct {
	key   cacheKey
	rev   uint64
	dec   *decodedRecord
	sum   *core.BoundingSummary
	bytes int64
}

// decodedRecord is a vehicle's fully decoded compressed trajectory: the
// unit sequence (immutable once built, safe to share across goroutines),
// its temporal sequence, and its effective summary.
type decodedRecord struct {
	rev      uint64
	units    []unit
	temporal traj.Temporal
	sum      *core.BoundingSummary
}

// Rough per-element heap costs for the byte budget: a unit is ~40 bytes,
// a temporal entry 16, a summary 48; entryOverhead covers the LRU element,
// map slot and struct headers.
const (
	unitBytes     = 40
	tempBytes     = 16
	entryOverhead = 160
)

func (d *decodedRecord) sizeBytes() int64 {
	return int64(len(d.units)*unitBytes + len(d.temporal)*tempBytes + core.BoundingSummaryLen)
}

// NewCache creates a cache bounded to roughly maxBytes of derived state.
// maxBytes <= 0 returns nil — callers treat a nil *Cache as "cache off",
// every lookup misses and every store is a no-op.
func NewCache(maxBytes int) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache{
		maxBytes: int64(maxBytes),
		ll:       list.New(),
		items:    make(map[cacheKey]*list.Element),
	}
}

// getDecoded returns the decoded record for id if present at exactly rev;
// a revision mismatch drops the stale entry and reports a miss.
func (c *Cache) getDecoded(id, rev uint64) (*decodedRecord, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[cacheKey{id: id}]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.rev != rev {
		c.removeLocked(el)
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return ent.dec, true
}

// putDecoded stores a decoded record for id, replacing any prior entry
// (decoded or summary — the decoded record subsumes it).
func (c *Cache) putDecoded(id uint64, d *decodedRecord) {
	if c == nil {
		return
	}
	c.put(&cacheEntry{
		key:   cacheKey{id: id},
		rev:   d.rev,
		dec:   d,
		bytes: d.sizeBytes() + entryOverhead,
	})
	// A decoded entry carries its own summary; a separate memoized one for
	// the same id is now redundant.
	c.mu.Lock()
	if el, ok := c.items[cacheKey{id: id, summary: true}]; ok {
		c.removeLocked(el)
	}
	c.mu.Unlock()
}

// getSummary returns the memoized summary for id at exactly rev, checking
// the decoded entry first (it subsumes the summary).
func (c *Cache) getSummary(id, rev uint64) (*core.BoundingSummary, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[cacheKey{id: id}]; ok {
		ent := el.Value.(*cacheEntry)
		if ent.rev == rev {
			c.ll.MoveToFront(el)
			c.sumHits.Add(1)
			return ent.dec.sum, true
		}
	}
	el, ok := c.items[cacheKey{id: id, summary: true}]
	if !ok {
		c.sumMisses.Add(1)
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.rev != rev {
		c.removeLocked(el)
		c.sumMisses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.sumHits.Add(1)
	return ent.sum, true
}

// putSummary memoizes a computed summary for id at rev.
func (c *Cache) putSummary(id, rev uint64, sum *core.BoundingSummary) {
	if c == nil || sum == nil {
		return
	}
	c.put(&cacheEntry{
		key:   cacheKey{id: id, summary: true},
		rev:   rev,
		sum:   sum,
		bytes: core.BoundingSummaryLen + entryOverhead,
	})
}

func (c *Cache) put(ent *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[ent.key]; ok {
		c.removeLocked(el)
	}
	// An entry larger than the whole budget is not cacheable; admitting it
	// would just evict everything and then itself.
	if ent.bytes > c.maxBytes {
		return
	}
	el := c.ll.PushFront(ent)
	c.items[ent.key] = el
	c.bytes += ent.bytes
	for c.bytes > c.maxBytes {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		c.removeLocked(tail)
		c.evictions.Add(1)
	}
}

func (c *Cache) removeLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, ent.key)
	c.bytes -= ent.bytes
}

// CacheStats is a point-in-time counter snapshot for /v1/stats and
// /metrics.
type CacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	SummaryHits   uint64 `json:"summary_hits"`
	SummaryMisses uint64 `json:"summary_misses"`
	Evictions     uint64 `json:"evictions"`
	Entries       int    `json:"entries"`
	Bytes         int64  `json:"bytes"`
	MaxBytes      int64  `json:"max_bytes"`
	ResultHits    uint64 `json:"result_hits"`
	ResultMisses  uint64 `json:"result_misses"`
	ResultEntries int    `json:"result_entries"`
}

// Stats returns a consistent snapshot of the cache counters. A nil cache
// reports zeroes.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	entries, bytes := c.ll.Len(), c.bytes
	c.mu.Unlock()
	c.resMu.Lock()
	resEntries := len(c.resItems)
	c.resMu.Unlock()
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		SummaryHits:   c.sumHits.Load(),
		SummaryMisses: c.sumMisses.Load(),
		Evictions:     c.evictions.Load(),
		Entries:       entries,
		Bytes:         bytes,
		MaxBytes:      c.maxBytes,
		ResultHits:    c.resHits.Load(),
		ResultMisses:  c.resMisses.Load(),
		ResultEntries: resEntries,
	}
}
