// Package core implements the primary contribution of PRESS: Hybrid Spatial
// Compression (HSC = shortest-path compression + frequent-sub-trajectory
// coding, §3), Bounded Temporal Compression (BTC, §4) with its TSND and
// NSTD error metrics, and the combined compressed-trajectory codec.
package core

import (
	"errors"
	"fmt"

	"press/internal/spindex"
	"press/internal/traj"
)

// SPCompress is Algorithm 1: greedy shortest-path compression. A maximal run
// of edges that exactly follows the canonical shortest path between its two
// endpoints is replaced by those endpoints. The greedy strategy is optimal
// (Theorem 1). The input must be a connected edge path. Each anchor's
// SPend questions go to one search from it (SP.From), resumed as the run
// grows instead of restarted per edge.
func SPCompress(t spindex.SP, path traj.Path) traj.Path {
	n := len(path)
	if n <= 2 {
		return path.Clone()
	}
	out := make(traj.Path, 0, 4)
	out = append(out, path[0])
	s := t.From(path[0])
	for i := 1; i <= n-2; i++ {
		if s.SPEnd(path[i+1]) != path[i] {
			out = append(out, path[i])
			s.Close()
			s = t.From(path[i])
		}
	}
	s.Close()
	return append(out, path[n-1])
}

// SPDecompress inverts SPCompress: any two consecutive retained edges that
// are not adjacent in the network are bridged by the canonical shortest path
// between them. It fails if some pair is mutually unreachable, which cannot
// happen for outputs of SPCompress on valid paths.
func SPDecompress(t spindex.SP, compressed traj.Path) (traj.Path, error) {
	if len(compressed) == 0 {
		return nil, errors.New("core: empty compressed path")
	}
	g := t.Graph()
	out := make(traj.Path, 0, len(compressed)*2)
	out = append(out, compressed[0])
	for i := 1; i < len(compressed); i++ {
		a, b := compressed[i-1], compressed[i]
		if g.Adjacent(a, b) {
			out = append(out, b)
			continue
		}
		sp := t.Path(a, b)
		if sp == nil {
			return nil, fmt.Errorf("core: edges %d and %d are not connected", a, b)
		}
		out = append(out, sp[1:]...)
	}
	return out, nil
}

// spOptimalBruteForce computes, by dynamic programming over retained-edge
// subsets, the minimum possible length of an SP-compressed form of path. It
// exists to validate Theorem 1 in tests and is exported to the test file
// only through its lowercase name.
func spOptimalBruteForce(t spindex.SP, path traj.Path) int {
	n := len(path)
	if n <= 2 {
		return n
	}
	// best[i] = minimal compressed length of path[:i+1] with path[i] retained.
	best := make([]int, n)
	for i := range best {
		best[i] = 1 << 30
	}
	best[0] = 1
	for i := 1; i < n; i++ {
		// j is the previous retained index; the run path[j..i] must equal
		// the canonical shortest path from path[j] to path[i].
		for j := i - 1; j >= 0; j-- {
			if pathEqualsSP(t, path[j:i+1]) && best[j]+1 < best[i] {
				best[i] = best[j] + 1
			}
		}
	}
	return best[n-1]
}

// pathEqualsSP reports whether the edge run is exactly the canonical
// shortest path between its endpoints.
func pathEqualsSP(t spindex.SP, run traj.Path) bool {
	sp := t.Path(run[0], run[len(run)-1])
	if len(sp) != len(run) {
		return false
	}
	for i := range sp {
		if sp[i] != run[i] {
			return false
		}
	}
	return true
}
