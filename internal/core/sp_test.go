package core

import (
	"math/rand"
	"testing"

	"press/internal/roadnet"
	"press/internal/spindex"
	"press/internal/traj"
)

// testGrid returns a 5×5 grid and its SP table, shared across core tests.
func testGrid(t *testing.T) (*roadnet.Graph, *spindex.Table) {
	t.Helper()
	g, err := roadnet.Grid(5, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	return g, spindex.NewTable(g)
}

// randomWalk produces a connected edge path of the given length that never
// immediately U-turns (mimicking vehicle movement).
func randomWalk(g *roadnet.Graph, rng *rand.Rand, length int) traj.Path {
	start := g.Out(roadnet.VertexID(rng.Intn(g.NumVertices())))
	cur := start[rng.Intn(len(start))]
	path := traj.Path{cur}
	for len(path) < length {
		opts := g.Out(g.Edge(cur).To)
		// Prefer not to take the reverse edge.
		var cands []roadnet.EdgeID
		for _, e := range opts {
			if g.Edge(e).To != g.Edge(cur).From {
				cands = append(cands, e)
			}
		}
		if len(cands) == 0 {
			cands = opts
		}
		cur = cands[rng.Intn(len(cands))]
		path = append(path, cur)
	}
	return path
}

func TestSPCompressShortPaths(t *testing.T) {
	_, tab := testGrid(t)
	one := traj.Path{3}
	if got := SPCompress(tab, one); !got.Equal(one) {
		t.Errorf("len-1 path changed: %v", got)
	}
	two := traj.Path{0, 4}
	if got := SPCompress(tab, two); !got.Equal(two) {
		t.Errorf("len-2 path changed: %v", got)
	}
}

func TestSPCompressShortestPathCollapses(t *testing.T) {
	g, tab := testGrid(t)
	// Take the canonical SP between two far-apart edges: it must compress to
	// exactly its two endpoints.
	var src, dst roadnet.EdgeID = 0, roadnet.EdgeID(g.NumEdges() - 1)
	sp := traj.Path(tab.Path(src, dst))
	if len(sp) < 4 {
		t.Fatalf("test setup: SP too short (%d)", len(sp))
	}
	got := SPCompress(tab, sp)
	if len(got) != 2 || got[0] != src || got[1] != dst {
		t.Errorf("SP of len %d compressed to %v", len(sp), got)
	}
}

func TestSPRoundTripProperty(t *testing.T) {
	g, tab := testGrid(t)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		path := randomWalk(g, rng, rng.Intn(40)+1)
		comp := SPCompress(tab, path)
		if len(comp) > len(path) {
			t.Fatalf("compression grew: %d -> %d", len(path), len(comp))
		}
		back, err := SPDecompress(tab, comp)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if !back.Equal(path) {
			t.Fatalf("roundtrip mismatch:\n in  %v\n cmp %v\n out %v", path, comp, back)
		}
	}
}

// Theorem 1: the greedy algorithm achieves the minimum possible number of
// retained edges.
func TestGreedyIsOptimal(t *testing.T) {
	g, tab := testGrid(t)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		path := randomWalk(g, rng, rng.Intn(18)+3)
		greedy := len(SPCompress(tab, path))
		optimal := spOptimalBruteForce(tab, path)
		if greedy != optimal {
			t.Fatalf("greedy %d > optimal %d for %v", greedy, optimal, path)
		}
	}
}

func TestSPCompressLoopedTrajectory(t *testing.T) {
	g, tab := testGrid(t)
	// A trajectory that returns over its own edges must survive roundtrip.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		out := randomWalk(g, rng, 8)
		// Append the exact reverse edges to drive back.
		path := out.Clone()
		for i := len(out) - 1; i >= 0; i-- {
			e := g.Edge(out[i])
			for _, r := range g.Out(e.To) {
				if g.Edge(r).To == e.From {
					path = append(path, r)
					break
				}
			}
		}
		if !g.IsPath([]roadnet.EdgeID(path)) {
			t.Fatal("test setup: loop path disconnected")
		}
		comp := SPCompress(tab, path)
		back, err := SPDecompress(tab, comp)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if !back.Equal(path) {
			t.Fatalf("loop roundtrip mismatch")
		}
	}
}

func TestSPDecompressErrors(t *testing.T) {
	_, tab := testGrid(t)
	if _, err := SPDecompress(tab, nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestSPDecompressUnreachable(t *testing.T) {
	// Build a disconnected two-component graph.
	vs := []roadnet.Vertex{
		{ID: 0}, {ID: 1, Pos: pt(10, 0)},
		{ID: 2, Pos: pt(100, 100)}, {ID: 3, Pos: pt(110, 100)},
	}
	es := []roadnet.Edge{
		{ID: 0, From: 0, To: 1},
		{ID: 1, From: 2, To: 3},
	}
	g, err := roadnet.NewGraph(vs, es)
	if err != nil {
		t.Fatal(err)
	}
	tab := spindex.NewTable(g)
	if _, err := SPDecompress(tab, traj.Path{0, 1}); err == nil {
		t.Error("unreachable pair accepted")
	}
}

// spCompressReference is Algorithm 1 as a batch loop over the whole path,
// kept as the oracle the streaming OnlineSP (and so SPCompress) is checked
// against.
func spCompressReference(t spindex.SP, path traj.Path) traj.Path {
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

// spOptimalBruteForce computes, by dynamic programming over retained-edge
// subsets, the minimum possible length of an SP-compressed form of path:
// the oracle for Theorem 1.
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
