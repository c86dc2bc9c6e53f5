// Package traj defines the trajectory representations of PRESS §2 and the
// trajectory re-formatter of Fig. 1.
//
// A raw trajectory is the traditional sequence of (x, y, t) samples. PRESS
// re-formats it — after map matching — into two independent streams:
//
//   - the spatial path: a sequence of consecutive road-network edges, and
//   - the temporal sequence: (d_i, t_i) tuples where d_i is the network
//     distance traveled since the start of the trajectory at time t_i.
//
// Dis and Tim implement the linear-interpolation accessors of §4 that the
// error metrics TSND and NSTD are defined over.
package traj

import (
	"errors"
	"fmt"
	"math"

	"press/internal/geo"
	"press/internal/roadnet"
)

// RawPoint is one GPS sample.
type RawPoint struct {
	Pos geo.Point
	T   float64 // seconds since epoch (or trajectory start)
}

// Raw is a raw GPS trajectory: time-ordered samples.
type Raw []RawPoint

// Validate checks temporal ordering.
func (r Raw) Validate() error {
	for i := 1; i < len(r); i++ {
		if r[i].T < r[i-1].T {
			return fmt.Errorf("traj: raw sample %d goes back in time", i)
		}
	}
	return nil
}

// SizeBytes is the storage cost of the traditional representation:
// two float64 coordinates plus one 8-byte timestamp per sample.
func (r Raw) SizeBytes() int { return len(r) * 24 }

// Path is the spatial path: consecutive edge identifiers.
type Path []roadnet.EdgeID

// SizeBytes is the storage cost at 4 bytes (int32) per edge id.
func (p Path) SizeBytes() int { return len(p) * 4 }

// Clone returns a copy of the path.
func (p Path) Clone() Path { return append(Path(nil), p...) }

// Equal reports whether two paths are identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Entry is one temporal tuple (d_i, t_i): at time T the object has traveled
// network distance D since the start of the trajectory.
type Entry struct {
	D float64
	T float64
}

// Temporal is the temporal sequence of a trajectory.
type Temporal []Entry

// SizeBytes is the storage cost at two float64 per tuple.
func (ts Temporal) SizeBytes() int { return len(ts) * 16 }

// Clone returns a copy of the sequence.
func (ts Temporal) Clone() Temporal { return append(Temporal(nil), ts...) }

// Validate checks that every value is finite, time strictly increasing and
// distance non-decreasing, the invariants every PRESS component assumes.
func (ts Temporal) Validate() error {
	for i, e := range ts {
		if math.IsNaN(e.D) || math.IsInf(e.D, 0) || math.IsNaN(e.T) || math.IsInf(e.T, 0) {
			return fmt.Errorf("traj: temporal entry %d: not finite", i)
		}
	}
	for i := 1; i < len(ts); i++ {
		if ts[i].T <= ts[i-1].T {
			return fmt.Errorf("traj: temporal entry %d: time not strictly increasing", i)
		}
		if ts[i].D < ts[i-1].D {
			return fmt.Errorf("traj: temporal entry %d: distance decreases", i)
		}
	}
	return nil
}

// Duration returns the covered time span.
func (ts Temporal) Duration() float64 {
	if len(ts) == 0 {
		return 0
	}
	return ts[len(ts)-1].T - ts[0].T
}

// Distance returns the total network distance covered.
func (ts Temporal) Distance() float64 {
	if len(ts) == 0 {
		return 0
	}
	return ts[len(ts)-1].D - ts[0].D
}

// Dis returns the network distance traveled at time tx by linear
// interpolation (the paper's Dis(T, tx)); tx outside the covered time span
// clamps to the first/last tuple.
func (ts Temporal) Dis(tx float64) float64 {
	n := len(ts)
	if n == 0 {
		return 0
	}
	if tx <= ts[0].T {
		return ts[0].D
	}
	if tx >= ts[n-1].T {
		return ts[n-1].D
	}
	// Binary search for the segment with ts[i].T < tx <= ts[i+1].T.
	lo, hi := 0, n-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if ts[mid].T < tx {
			lo = mid
		} else {
			hi = mid
		}
	}
	a, b := ts[lo], ts[hi]
	if b.T == a.T {
		return b.D
	}
	return a.D + (b.D-a.D)*(tx-a.T)/(b.T-a.T)
}

// Tim returns the first time at which the object has traveled distance dx
// (the paper's Tim(T, dx)); dx outside the covered range clamps.
func (ts Temporal) Tim(dx float64) float64 {
	n := len(ts)
	if n == 0 {
		return 0
	}
	if dx <= ts[0].D {
		return ts[0].T
	}
	if dx >= ts[n-1].D {
		// First index reaching the final distance (the object may idle at
		// the destination).
		for i := 0; i < n; i++ {
			if ts[i].D >= ts[n-1].D {
				return ts[i].T
			}
		}
		return ts[n-1].T
	}
	// First segment whose end reaches dx.
	lo, hi := 0, n-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if ts[mid].D < dx {
			lo = mid
		} else {
			hi = mid
		}
	}
	a, b := ts[lo], ts[hi]
	if b.D == a.D {
		return a.T
	}
	return a.T + (b.T-a.T)*(dx-a.D)/(b.D-a.D)
}

// Trajectory is the PRESS representation: a spatial path plus a temporal
// sequence, fully decoupled per §2.
type Trajectory struct {
	Path     Path
	Temporal Temporal
}

// SizeBytes is the storage cost of the re-formatted representation.
func (t *Trajectory) SizeBytes() int { return t.Path.SizeBytes() + t.Temporal.SizeBytes() }

// Validate checks both components and that the temporal distances stay
// within the spatial path's total length.
func (t *Trajectory) Validate(g *roadnet.Graph) error {
	if !g.IsPath([]roadnet.EdgeID(t.Path)) {
		return errors.New("traj: spatial path is not connected")
	}
	if err := t.Temporal.Validate(); err != nil {
		return err
	}
	if n := len(t.Temporal); n > 0 {
		total := g.PathLength([]roadnet.EdgeID(t.Path))
		if t.Temporal[n-1].D > total+1e-6 {
			return fmt.Errorf("traj: temporal distance %.3f exceeds path length %.3f",
				t.Temporal[n-1].D, total)
		}
		if t.Temporal[0].D < -1e-9 {
			return errors.New("traj: negative start distance")
		}
	}
	return nil
}

// PositionAt returns the planar position along the trajectory at time tx.
func (t *Trajectory) PositionAt(g *roadnet.Graph, tx float64) geo.Point {
	return g.PointAlongPath([]roadnet.EdgeID(t.Path), t.Temporal.Dis(tx))
}

// Replay streams the trajectory the way a live vehicle reports it: edges
// and temporal samples interleaved one-for-one (then whichever stream is
// longer finishes). Every consumer of the online codec — tests, benches,
// examples — replays through here so they all exercise the same
// interleaving. The first non-nil callback error stops the replay and is
// returned.
func (t *Trajectory) Replay(edge func(roadnet.EdgeID) error, sample func(Entry) error) error {
	ei, si := 0, 0
	for ei < len(t.Path) || si < len(t.Temporal) {
		if ei < len(t.Path) {
			if err := edge(t.Path[ei]); err != nil {
				return err
			}
			ei++
		}
		if si < len(t.Temporal) {
			if err := sample(t.Temporal[si]); err != nil {
				return err
			}
			si++
		}
	}
	return nil
}

// Reformat is the trajectory re-formatter: it takes a map-matched spatial
// path and the raw samples, projects every sample onto the path and emits
// the (d_i, t_i) temporal sequence. Projections are forced to be monotone
// along the path (a GPS jitter can otherwise project slightly backward),
// and samples with non-increasing timestamps are dropped.
func Reformat(g *roadnet.Graph, path Path, raw Raw) (*Trajectory, error) {
	if len(path) == 0 {
		return nil, errors.New("traj: empty path")
	}
	if len(raw) == 0 {
		return nil, errors.New("traj: no raw samples")
	}
	pl := g.PathPolyline([]roadnet.EdgeID(path))
	ts := make(Temporal, 0, len(raw))
	prevD := math.Inf(-1)
	prevT := math.Inf(-1)
	for _, rp := range raw {
		if rp.T <= prevT {
			continue
		}
		_, along, _ := pl.Project(rp.Pos)
		if along < prevD {
			along = prevD
		}
		ts = append(ts, Entry{D: along, T: rp.T})
		prevD = along
		prevT = rp.T
	}
	if len(ts) == 0 {
		return nil, errors.New("traj: all samples dropped during reformatting")
	}
	tr := &Trajectory{Path: path, Temporal: ts}
	if err := tr.Validate(g); err != nil {
		return nil, err
	}
	return tr, nil
}
