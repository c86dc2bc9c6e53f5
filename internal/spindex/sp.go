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
// Hier.From resumes one early-stopped search as its destinations move
// outward, so a run of SPEnd questions from one anchor costs one search,
// not one per question; Table.From hands out the source's row.
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
	// From opens a search that answers SPEnd(src, ·) for many destinations
	// in turn: Algorithm 1's fixed anchor asked about each next edge. The
	// caller must Close it.
	From(src roadnet.EdgeID) Search
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

// Search answers SPEnd from one fixed source. Every answer equals
// SP.SPEnd(src, dst), whatever order the destinations come in. A Search is
// not safe for concurrent use and must not be used after Close.
type Search interface {
	// SPEnd returns SPEnd(src, dst) for the search's source src.
	SPEnd(dst roadnet.EdgeID) roadnet.EdgeID
	// Close releases the search's scratch.
	Close()
}

// Compile-time checks: every implementation satisfies the contract.
var (
	_ SP = (*Table)(nil)
	_ SP = (*Hier)(nil)

	_ Search = (*hierCtx)(nil)
	_ Search = tableRow(nil)
)
