package query

import (
	"errors"
	"sort"

	"press/internal/core"
	"press/internal/geo"
)

// FleetIndex is the future-work direction §6.3 sketches ("PRESS is
// compatible to most, if not all, indexing structures such as R-tree"): a
// static STR-packed R-tree over the MBRs and time spans of a whole
// compressed fleet, so fleet-level queries (which trajectories crossed
// region R during [t1,t2]?) prune to a handful of candidates before any
// per-trajectory work — still without decompressing anything.
type FleetIndex struct {
	eng  *Engine
	cts  []*core.Compressed
	ids  []uint64 // store record id per position; ids[i] == i when built from a slice
	root *rtreeNode
}

type rtreeNode struct {
	mbr      geo.MBR
	tMin     float64
	tMax     float64
	children []*rtreeNode
	leafIdx  int // trajectory index; -1 for internal nodes
}

const rtreeFanout = 8

// NewFleetIndex bulk-loads an index over the fleet. The per-trajectory MBR
// is the union of its units' MBRs (computed from the auxiliary structures,
// not by decompression).
func NewFleetIndex(eng *Engine, cts []*core.Compressed) (*FleetIndex, error) {
	ids := make([]uint64, len(cts))
	for i := range ids {
		ids[i] = uint64(i)
	}
	return newFleetIndex(eng, cts, ids)
}

// Scanner streams a compressed fleet keyed by trajectory id;
// store.ShardedStore satisfies it.
type Scanner interface {
	Scan(fn func(id uint64, ct *core.Compressed) error) error
}

// NewFleetIndexFromStore bulk-loads an index straight from a fleet store
// without the caller materializing a slice first.
// Query results are positions in scan order; RecordID maps a position back
// to the store id it came from.
func NewFleetIndexFromStore(eng *Engine, src Scanner) (*FleetIndex, error) {
	if src == nil {
		return nil, errors.New("query: nil store")
	}
	var cts []*core.Compressed
	var ids []uint64
	err := src.Scan(func(id uint64, ct *core.Compressed) error {
		cts = append(cts, ct)
		ids = append(ids, id)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return newFleetIndex(eng, cts, ids)
}

func newFleetIndex(eng *Engine, cts []*core.Compressed, ids []uint64) (*FleetIndex, error) {
	if eng == nil {
		return nil, errors.New("query: nil engine")
	}
	leaves := make([]*rtreeNode, 0, len(cts))
	for i, ct := range cts {
		m, err := eng.trajectoryMBR(ct)
		if err != nil {
			return nil, err
		}
		n := &rtreeNode{mbr: m, leafIdx: i}
		if len(ct.Temporal) > 0 {
			n.tMin = ct.Temporal[0].T
			n.tMax = ct.Temporal[len(ct.Temporal)-1].T
		}
		leaves = append(leaves, n)
	}
	idx := &FleetIndex{eng: eng, cts: cts, ids: ids}
	idx.root = buildSTR(leaves)
	return idx, nil
}

// RecordID maps an index position (as returned by RangeQuery or Nearby)
// back to the originating store record id.
func (fi *FleetIndex) RecordID(i int) uint64 { return fi.ids[i] }

// trajectoryMBR unions the unit MBRs of one compressed trajectory.
func (e *Engine) trajectoryMBR(ct *core.Compressed) (geo.MBR, error) {
	m := geo.EmptyMBR()
	cur := e.newCursor(ct)
	for {
		u, ok, err := cur.next()
		if err != nil {
			return m, err
		}
		if !ok {
			return m, nil
		}
		um, err := e.mbrOf(u)
		if err != nil {
			return m, err
		}
		m.ExtendMBR(um)
	}
}

// buildSTR is a Sort-Tile-Recursive bulk load: sort by x, tile, sort each
// tile by y, pack.
func buildSTR(nodes []*rtreeNode) *rtreeNode {
	if len(nodes) == 0 {
		return &rtreeNode{mbr: geo.EmptyMBR(), leafIdx: -1}
	}
	for len(nodes) > 1 {
		sort.Slice(nodes, func(i, j int) bool {
			ci, cj := nodes[i].mbr.Center(), nodes[j].mbr.Center()
			if ci.X != cj.X {
				return ci.X < cj.X
			}
			return ci.Y < cj.Y
		})
		// Tile count: enough vertical slices that each holds ~fanout groups.
		nGroups := (len(nodes) + rtreeFanout - 1) / rtreeFanout
		nSlices := intSqrtCeil(nGroups)
		sliceSize := (len(nodes) + nSlices - 1) / nSlices
		var next []*rtreeNode
		for s := 0; s < len(nodes); s += sliceSize {
			end := s + sliceSize
			if end > len(nodes) {
				end = len(nodes)
			}
			slice := nodes[s:end]
			sort.Slice(slice, func(i, j int) bool {
				ci, cj := slice[i].mbr.Center(), slice[j].mbr.Center()
				if ci.Y != cj.Y {
					return ci.Y < cj.Y
				}
				return ci.X < cj.X
			})
			for g := 0; g < len(slice); g += rtreeFanout {
				ge := g + rtreeFanout
				if ge > len(slice) {
					ge = len(slice)
				}
				parent := &rtreeNode{mbr: geo.EmptyMBR(), leafIdx: -1}
				parent.tMin = slice[g].tMin
				parent.tMax = slice[g].tMax
				for _, c := range slice[g:ge] {
					parent.children = append(parent.children, c)
					parent.mbr.ExtendMBR(c.mbr)
					if c.tMin < parent.tMin {
						parent.tMin = c.tMin
					}
					if c.tMax > parent.tMax {
						parent.tMax = c.tMax
					}
				}
				next = append(next, parent)
			}
		}
		nodes = next
	}
	return nodes[0]
}

func intSqrtCeil(n int) int {
	s := 1
	for s*s < n {
		s++
	}
	return s
}

// Len returns the number of indexed trajectories.
func (fi *FleetIndex) Len() int { return len(fi.cts) }

// RangeQuery returns the indices of trajectories that pass through region r
// during [t1, t2]: the R-tree prunes by MBR and time span, the surviving
// candidates run the exact per-trajectory Range query.
//
// Unlike the per-trajectory Range — which clamps the window to the
// trajectory's lifetime, so a query after a trip ends can still match its
// final position — the fleet index only considers trajectories whose
// lifetime overlaps [t1, t2] (the natural fleet-level semantics: "who was
// there *during* the window").
func (fi *FleetIndex) RangeQuery(t1, t2 float64, r geo.MBR) ([]int, error) {
	if t2 < t1 {
		t1, t2 = t2, t1
	}
	var out []int
	var walk func(n *rtreeNode) error
	walk = func(n *rtreeNode) error {
		if n == nil || !n.mbr.Intersects(r) || n.tMax < t1 || n.tMin > t2 {
			return nil
		}
		if n.leafIdx >= 0 {
			hit, err := fi.eng.Range(fi.cts[n.leafIdx], t1, t2, r)
			if err != nil {
				return err
			}
			if hit {
				out = append(out, n.leafIdx)
			}
			return nil
		}
		for _, c := range n.children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(fi.root); err != nil {
		return nil, err
	}
	sort.Ints(out)
	return out, nil
}

// Nearby returns the indices of trajectories that come within dist of p
// during [t1, t2].
func (fi *FleetIndex) Nearby(p geo.Point, dist, t1, t2 float64) ([]int, error) {
	if t2 < t1 {
		t1, t2 = t2, t1
	}
	var out []int
	var walk func(n *rtreeNode) error
	walk = func(n *rtreeNode) error {
		if n == nil || n.mbr.DistToPoint(p) > dist || n.tMax < t1 || n.tMin > t2 {
			return nil
		}
		if n.leafIdx >= 0 {
			hit, err := fi.eng.PassesNear(fi.cts[n.leafIdx], p, dist, t1, t2)
			if err != nil {
				return err
			}
			if hit {
				out = append(out, n.leafIdx)
			}
			return nil
		}
		for _, c := range n.children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(fi.root); err != nil {
		return nil, err
	}
	sort.Ints(out)
	return out, nil
}
