package query

import (
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"press/internal/core"
	"press/internal/geo"
)

// DefaultBucketSeconds is the width of the incremental index's time
// buckets. One bucket per hour of fleet history keeps the bucket walk
// trivial (a day is 24 buckets, a year ~8800) while a query window only
// opens the buckets it overlaps.
const DefaultBucketSeconds = 3600

// IncrementalFleetIndex is the fleet index behind whole-fleet range and
// nearby queries: per-vehicle BoundingSummaries hashed into fixed-width
// time buckets by trip start, answering in ascending trajectory ids. It
// holds one entry per vehicle — the latest record, the same one the
// single-vehicle queries serve — so a compaction that drops superseded
// records changes no answer. Upsert and Delete are O(1) — this is what a
// stream flush calls, so a vehicle is queryable the moment its flush
// returns, with no rebuild and no store scan. Queries prune in two stages
// before any payload work: the bucket walk skips whole buckets outside the
// time window, then per-entry summaries (time interval, then the summary
// MBR against the query rectangle or point) reject candidates
// individually; only survivors are verified exactly through the View
// (which decompresses at most once per candidate, cached).
//
// Latency is governed by the number of summaries overlapping the query
// window, not by total stored history: growing a store 100x by appending
// more hours of data adds buckets the walk skips with one comparison
// each, which keeps fleet-range latency flat as history grows.
type IncrementalFleetIndex struct {
	view  *View
	width float64

	mu      sync.RWMutex
	buckets map[int64]*idxBucket
	byID    map[uint64]idxPos

	upserts, deletes, refreshes  atomic.Uint64
	sumRejects, bucketsSkipped   atomic.Uint64
	candidates, verifies, hitIDs atomic.Uint64
}

type idxEntry struct {
	id  uint64
	sum core.BoundingSummary
}

type idxBucket struct {
	// Actual bounds of the entries ever inserted (loose after removals —
	// a superset, so pruning stays safe).
	t0, t1  float64
	mbr     geo.MBR
	entries []idxEntry
}

// idxPos locates an id inside the index; slot -1 marks an entry with an
// empty time interval, which can never match a query and lives in no
// bucket.
type idxPos struct {
	key  int64
	slot int
}

// NewIncrementalFleetIndex creates an empty incremental index verifying
// candidates through view. bucketSeconds <= 0 selects
// DefaultBucketSeconds.
func NewIncrementalFleetIndex(view *View, bucketSeconds float64) (*IncrementalFleetIndex, error) {
	if view == nil {
		return nil, errors.New("query: nil view")
	}
	if bucketSeconds <= 0 {
		bucketSeconds = DefaultBucketSeconds
	}
	return &IncrementalFleetIndex{
		view:    view,
		width:   bucketSeconds,
		buckets: make(map[int64]*idxBucket),
		byID:    make(map[uint64]idxPos),
	}, nil
}

func (ix *IncrementalFleetIndex) bucketKey(t0 float64) int64 {
	return int64(math.Floor(t0 / ix.width))
}

// Upsert inserts or replaces the vehicle's index entry. A nil summary is
// resolved through the view (stored summary, memoized summary, or a
// one-time decode). This is the flush hook: O(1) on the index itself.
func (ix *IncrementalFleetIndex) Upsert(id uint64, sum *core.BoundingSummary) error {
	if sum == nil {
		var err error
		if _, sum, err = ix.view.Summary(id); err != nil {
			return err
		}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(id)
	ix.insertLocked(id, *sum)
	ix.upserts.Add(1)
	return nil
}

// Delete removes the vehicle from the index (no-op when absent).
func (ix *IncrementalFleetIndex) Delete(id uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.byID[id]; ok {
		ix.removeLocked(id)
		ix.deletes.Add(1)
	}
}

func (ix *IncrementalFleetIndex) insertLocked(id uint64, sum core.BoundingSummary) {
	if !(sum.T0 <= sum.T1) {
		// Empty time interval: never alive, never a candidate.
		ix.byID[id] = idxPos{slot: -1}
		return
	}
	key := ix.bucketKey(sum.T0)
	b := ix.buckets[key]
	if b == nil {
		b = &idxBucket{t0: math.Inf(1), t1: math.Inf(-1), mbr: geo.EmptyMBR()}
		ix.buckets[key] = b
	}
	if sum.T0 < b.t0 {
		b.t0 = sum.T0
	}
	if sum.T1 > b.t1 {
		b.t1 = sum.T1
	}
	b.mbr.ExtendMBR(sum.MBR)
	b.entries = append(b.entries, idxEntry{id: id, sum: sum})
	ix.byID[id] = idxPos{key: key, slot: len(b.entries) - 1}
}

func (ix *IncrementalFleetIndex) removeLocked(id uint64) {
	pos, ok := ix.byID[id]
	if !ok {
		return
	}
	delete(ix.byID, id)
	if pos.slot < 0 {
		return
	}
	b := ix.buckets[pos.key]
	last := len(b.entries) - 1
	if pos.slot != last {
		moved := b.entries[last]
		b.entries[pos.slot] = moved
		ix.byID[moved.id] = idxPos{key: pos.key, slot: pos.slot}
	}
	b.entries = b.entries[:last]
	if len(b.entries) == 0 {
		delete(ix.buckets, pos.key)
	}
}

// RefreshFromStore rebuilds the index's entry set from the store's record
// metadata: one ScanMeta pass, no payload reads for records that persist
// summaries (records stored without a summary are summarized once through
// the view and memoized). This is the catch-up path when the store changed
// behind the index's back — external appends, deletes, a Compact swap —
// detected via the store generation, not a per-flush cost.
func (ix *IncrementalFleetIndex) RefreshFromStore(src MetaScanner) error {
	if src == nil {
		return errors.New("query: nil meta scanner")
	}
	type meta struct {
		id  uint64
		sum *core.BoundingSummary
	}
	var metas []meta
	err := src.ScanMeta(func(id, rev uint64, sum *core.BoundingSummary) error {
		metas = append(metas, meta{id: id, sum: sum})
		return nil
	})
	if err != nil {
		return err
	}
	// Resolve missing summaries outside the index lock: it may decode.
	for i := range metas {
		if metas[i].sum == nil {
			if _, s, err := ix.view.Summary(metas[i].id); err == nil {
				metas[i].sum = s
			} else {
				return err
			}
		}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.buckets = make(map[int64]*idxBucket)
	ix.byID = make(map[uint64]idxPos, len(metas))
	for _, m := range metas {
		ix.insertLocked(m.id, *m.sum)
	}
	ix.refreshes.Add(1)
	return nil
}

// Len returns the number of indexed vehicles.
func (ix *IncrementalFleetIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.byID)
}

// candidatesFor walks the buckets overlapping [t1, t2], pruning whole
// buckets by their time bounds only, then individual summaries: entries
// failing the time overlap or keep are rejected without any payload work.
// The bucket MBR is maintained but not consulted here.
func (ix *IncrementalFleetIndex) candidatesFor(t1, t2 float64, keep func(*core.BoundingSummary) bool) []uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []uint64
	for _, b := range ix.buckets {
		if b.t1 < t1 || b.t0 > t2 {
			ix.bucketsSkipped.Add(1)
			continue
		}
		for i := range b.entries {
			e := &b.entries[i]
			if !e.sum.Overlaps(t1, t2) || !keep(&e.sum) {
				ix.sumRejects.Add(1)
				continue
			}
			out = append(out, e.id)
		}
	}
	return sortDedupIDs(out)
}

func sortDedupIDs(ids []uint64) []uint64 {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

// RangeIDs returns the ids of vehicles whose latest record passes through
// r during [t1, t2], ascending: summary-filtered candidates, each verified
// exactly with the §5.3 predicate through the view. Only records whose
// lifetime overlaps the window are considered.
func (ix *IncrementalFleetIndex) RangeIDs(t1, t2 float64, r geo.MBR) ([]uint64, error) {
	if t2 < t1 {
		t1, t2 = t2, t1
	}
	cand := ix.candidatesFor(t1, t2, func(s *core.BoundingSummary) bool {
		return s.MBR.Intersects(r)
	})
	ix.candidates.Add(uint64(len(cand)))
	var out []uint64
	for _, id := range cand {
		ix.verifies.Add(1)
		hit, err := ix.view.Range(id, t1, t2, r)
		if err != nil {
			return nil, err
		}
		if hit {
			out = append(out, id)
		}
	}
	ix.hitIDs.Add(uint64(len(out)))
	return out, nil
}

// NearbyIDs returns the ids of vehicles whose latest record comes within
// dist of p during [t1, t2], ascending: summary-filtered candidates, each
// verified exactly with the §5.4 nearby predicate through the view.
func (ix *IncrementalFleetIndex) NearbyIDs(p geo.Point, dist, t1, t2 float64) ([]uint64, error) {
	if t2 < t1 {
		t1, t2 = t2, t1
	}
	cand := ix.candidatesFor(t1, t2, func(s *core.BoundingSummary) bool {
		return s.MBR.DistToPoint(p) <= dist
	})
	ix.candidates.Add(uint64(len(cand)))
	var out []uint64
	for _, id := range cand {
		ix.verifies.Add(1)
		hit, err := ix.view.PassesNear(id, p, dist, t1, t2)
		if err != nil {
			return nil, err
		}
		if hit {
			out = append(out, id)
		}
	}
	ix.hitIDs.Add(uint64(len(out)))
	return out, nil
}

// IndexStats is a point-in-time counter snapshot for /v1/stats and
// /metrics.
type IndexStats struct {
	Entries        int    `json:"entries"`
	Buckets        int    `json:"buckets"`
	Upserts        uint64 `json:"upserts"`
	Deletes        uint64 `json:"deletes"`
	Refreshes      uint64 `json:"refreshes"`
	SummaryRejects uint64 `json:"summary_rejects"`
	BucketsSkipped uint64 `json:"buckets_skipped"`
	Candidates     uint64 `json:"candidates"`
	Verifies       uint64 `json:"verifies"`
	Hits           uint64 `json:"hits"`
}

// Stats returns a snapshot of the index counters.
func (ix *IncrementalFleetIndex) Stats() IndexStats {
	ix.mu.RLock()
	entries, buckets := len(ix.byID), len(ix.buckets)
	ix.mu.RUnlock()
	return IndexStats{
		Entries:        entries,
		Buckets:        buckets,
		Upserts:        ix.upserts.Load(),
		Deletes:        ix.deletes.Load(),
		Refreshes:      ix.refreshes.Load(),
		SummaryRejects: ix.sumRejects.Load(),
		BucketsSkipped: ix.bucketsSkipped.Load(),
		Candidates:     ix.candidates.Load(),
		Verifies:       ix.verifies.Load(),
		Hits:           ix.hitIDs.Load(),
	}
}
