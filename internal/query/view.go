package query

import (
	"errors"
	"math"
	"sync/atomic"

	"press/internal/core"
	"press/internal/geo"
)

// RecordSource is what the query layer needs from a store: latest-record
// reads keyed by a per-record revision, and a payload-free stat probe.
// *store.ShardedStore satisfies it.
type RecordSource interface {
	// GetRecord returns the latest record under id plus its revision (a
	// value unique to that exact stored record within the process).
	GetRecord(id uint64) (*core.Compressed, uint64, error)
	// StatRecord returns the latest record's revision and persisted
	// BoundingSummary (nil if stored without one) without reading the
	// payload.
	StatRecord(id uint64) (rev uint64, sum *core.BoundingSummary, err error)
}

// MetaScanner is the bulk counterpart of RecordSource.StatRecord: visit
// the latest record of every live id without reading payloads.
// *store.ShardedStore satisfies it.
type MetaScanner interface {
	ScanMeta(fn func(id uint64, rev uint64, sum *core.BoundingSummary) error) error
}

// View answers the §5 queries by vehicle id, straight off the store: each
// query fetches the vehicle's latest record and hands it to the Engine,
// which decodes trie nodes lazily and stops as soon as the answer is known.
// The View holds no decoded state, so a re-appended vehicle is answered
// from its new record on the very next query. A View is safe for
// concurrent use.
type View struct {
	eng *Engine
	src RecordSource

	decodes atomic.Uint64 // records fetched and handed to the engine
}

// NewView assembles a view. The *Cache argument is ignored (see compat.go).
func NewView(eng *Engine, src RecordSource, _ *Cache) (*View, error) {
	if eng == nil || src == nil {
		return nil, errors.New("query: nil engine or record source")
	}
	return &View{eng: eng, src: src}, nil
}

// Engine returns the underlying compressed-domain engine.
func (v *View) Engine() *Engine { return v.eng }

// Decodes returns how many records this view fetched and decoded: one per
// single-vehicle query, two per MinDistance.
func (v *View) Decodes() uint64 { return v.decodes.Load() }

// record fetches the vehicle's latest record and its revision.
func (v *View) record(id uint64) (*core.Compressed, uint64, error) {
	ct, rev, err := v.src.GetRecord(id)
	if err != nil {
		return nil, 0, err
	}
	v.decodes.Add(1)
	return ct, rev, nil
}

// WhereAt answers §5.1 for the vehicle's latest record.
func (v *View) WhereAt(id uint64, t float64) (geo.Point, error) {
	ct, _, err := v.record(id)
	if err != nil {
		return geo.Point{}, err
	}
	return v.eng.WhereAt(ct, t)
}

// WhenAt answers §5.2 for the vehicle's latest record.
func (v *View) WhenAt(id uint64, p geo.Point) (float64, error) {
	ct, _, err := v.record(id)
	if err != nil {
		return 0, err
	}
	return v.eng.WhenAt(ct, p)
}

// Range answers §5.3 for the vehicle's latest record.
func (v *View) Range(id uint64, t1, t2 float64, r geo.MBR) (bool, error) {
	ct, _, err := v.record(id)
	if err != nil {
		return false, err
	}
	return v.eng.Range(ct, t1, t2, r)
}

// PassesNear answers the §5.4 nearby predicate for the vehicle's latest
// record.
func (v *View) PassesNear(id uint64, p geo.Point, dist, t1, t2 float64) (bool, error) {
	ct, _, err := v.record(id)
	if err != nil {
		return false, err
	}
	return v.eng.PassesNear(ct, p, dist, t1, t2)
}

// MinDistance answers the §5.4 trajectory-distance extension between two
// vehicles' latest records.
func (v *View) MinDistance(a, b uint64) (float64, error) {
	ca, _, err := v.record(a)
	if err != nil {
		return 0, err
	}
	cb, _, err := v.record(b)
	if err != nil {
		return 0, err
	}
	return v.eng.MinDistance(ca, cb)
}

// MinDistanceWith answers MinDistance when the second trajectory is not in
// this view's store — the cluster router ships the other owner's record
// over the wire and the owning node computes against it here. Argument
// order matches MinDistance(a, b): id is a, other is b, so a routed answer
// is identical to the single-node one.
func (v *View) MinDistanceWith(id uint64, other *core.Compressed) (float64, error) {
	ct, _, err := v.record(id)
	if err != nil {
		return 0, err
	}
	return v.eng.MinDistance(ct, other)
}

// Summary returns the vehicle's BoundingSummary and the revision it
// belongs to: the store's persisted summary when the record has one,
// without reading the payload; otherwise one derived by decoding the
// record.
func (v *View) Summary(id uint64) (uint64, *core.BoundingSummary, error) {
	rev, sum, err := v.src.StatRecord(id)
	if err != nil || sum != nil {
		return rev, sum, err
	}
	ct, rev, err := v.record(id)
	if err != nil {
		return 0, nil, err
	}
	sum, err = v.summarize(ct)
	return rev, sum, err
}

// summarize derives a summary from a record's units: the union of the unit
// MBRs (the same point set as the full path geometry) plus the temporal
// bounds.
func (v *View) summarize(ct *core.Compressed) (*core.BoundingSummary, error) {
	units, err := v.eng.units(ct)
	if err != nil {
		return nil, err
	}
	m := geo.EmptyMBR()
	for _, u := range units {
		um, err := v.eng.mbrOf(u)
		if err != nil {
			return nil, err
		}
		m.ExtendMBR(um)
	}
	s := &core.BoundingSummary{MBR: m, T0: math.Inf(1), T1: math.Inf(-1)}
	if n := len(ct.Temporal); n > 0 {
		s.T0, s.T1 = ct.Temporal[0].T, ct.Temporal[n-1].T
	}
	return s, nil
}
