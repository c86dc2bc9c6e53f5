package core

import (
	"encoding/binary"
	"errors"
	"math"

	"press/internal/geo"
)

// BoundingSummary is the cheap per-record filter for compressed-domain
// queries: the spatial MBR of the trajectory's path geometry plus the time
// interval covered by its (BTC'd) temporal sequence. Both are derived at
// compress time, so range and mindistance candidates can be rejected
// without touching — let alone decompressing — the spatial code. It travels
// on Compressed as an in-memory field only; the store layer persists it
// next to the payload (record format v3), keeping Marshal and SizeBytes —
// the paper's compression-ratio accounting — untouched.
type BoundingSummary struct {
	MBR    geo.MBR // spatial bounds of the full path geometry
	T0, T1 float64 // first/last retained timestamp; T0 > T1 when empty
}

// BoundingSummaryLen is the fixed serialized size of a summary: six
// little-endian float64 fields.
const BoundingSummaryLen = 48

// Overlaps reports whether the record was alive during [t1, t2], matching
// the fleet-index time-pruning semantics (a record with an empty temporal
// sequence is never alive).
func (s *BoundingSummary) Overlaps(t1, t2 float64) bool {
	return s.T1 >= t1 && s.T0 <= t2
}

// Marshal serializes the summary into its fixed 48-byte layout.
func (s *BoundingSummary) Marshal() [BoundingSummaryLen]byte {
	var b [BoundingSummaryLen]byte
	for i, v := range [...]float64{s.MBR.MinX, s.MBR.MinY, s.MBR.MaxX, s.MBR.MaxY, s.T0, s.T1} {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return b
}

// UnmarshalBoundingSummary parses the layout written by Marshal.
func UnmarshalBoundingSummary(b []byte) (*BoundingSummary, error) {
	if len(b) < BoundingSummaryLen {
		return nil, errors.New("core: short bounding summary")
	}
	f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:])) }
	return &BoundingSummary{
		MBR: geo.MBR{MinX: f(0), MinY: f(1), MaxX: f(2), MaxY: f(3)},
		T0:  f(4), T1: f(5),
	}, nil
}
