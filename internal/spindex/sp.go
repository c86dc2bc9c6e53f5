package spindex

import "press/internal/roadnet"

// SP is the shortest-path source every PRESS component consumes: the §3.1
// contract (SPend lookups, distances, canonical path reconstruction) without
// committing to where the all-pair answers come from. Two implementations
// ship:
//
//   - *Hier is the one the system builds, persists, maps and serves. SPEnd
//     and Path run dijkstraRow's loop from src and stop when dst settles;
//     Dist and GapDist come from a contraction hierarchy over the line
//     graph — O(|E| + shortcuts) memory and bidirectional upward searches —
//     built on the heap by NewHier or memory-mapped read-only from a
//     snapshot by OpenHierMapped, so N processes share one copy through the
//     page cache;
//   - *Table keeps the paper's all-pair rows on the Go heap, computed lazily
//     (or bulk-materialized by PrecomputeAll*). It is the reference the
//     hierarchy is tested against and the paper-preprocessing axis of the
//     experiments.
//
// Both are safe for concurrent use and return identical answers for the same
// graph (Hier's SPEnd and Path are Table's search stopped early, and its
// unpack-and-resum Dist reproduces Table's float accumulation; see hier.go
// for the exact contract), so the choice never changes compression output or
// query results.
type SP interface {
	// SPEnd returns the edge right before dst on the canonical shortest
	// path from src to dst, or NoEdge when dst is unreachable or src == dst.
	SPEnd(src, dst roadnet.EdgeID) roadnet.EdgeID
	// Dist returns the shortest-path distance from src to dst, accumulated
	// over every edge of the path except src itself (0 when src == dst,
	// +Inf when unreachable).
	Dist(src, dst roadnet.EdgeID) float64
	// GapDist returns the distance covered by the interior of SP(src, dst):
	// the edges strictly between src and dst.
	GapDist(src, dst roadnet.EdgeID) float64
	// Path reconstructs the canonical shortest path from src to dst,
	// inclusive of both endpoints. Returns nil when unreachable.
	Path(src, dst roadnet.EdgeID) []roadnet.EdgeID
	// Graph returns the underlying road network.
	Graph() *roadnet.Graph
}

// Compile-time checks: every implementation satisfies the contract.
var (
	_ SP = (*Table)(nil)
	_ SP = (*Hier)(nil)
)
