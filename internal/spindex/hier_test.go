package spindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"press/internal/gen"
	"press/internal/geo"
	"press/internal/roadnet"
)

// checkHierMatchesTable asserts bit-exact all-pairs equality between h and
// the reference table on every SP method.
func checkHierMatchesTable(t *testing.T, g *roadnet.Graph, h *Hier, label string) {
	t.Helper()
	tab := NewTable(g)
	n := g.NumEdges()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			src, dst := roadnet.EdgeID(a), roadnet.EdgeID(b)
			wd, gd := tab.Dist(src, dst), h.Dist(src, dst)
			if math.Float64bits(wd) != math.Float64bits(gd) {
				t.Fatalf("%s: Dist(%d,%d) = %v, table %v", label, a, b, gd, wd)
			}
			if we, ge := tab.SPEnd(src, dst), h.SPEnd(src, dst); we != ge {
				t.Fatalf("%s: SPEnd(%d,%d) = %d, table %d", label, a, b, ge, we)
			}
			wg, gg := tab.GapDist(src, dst), h.GapDist(src, dst)
			if math.Float64bits(wg) != math.Float64bits(gg) {
				t.Fatalf("%s: GapDist(%d,%d) = %v, table %v", label, a, b, gg, wg)
			}
		}
		// Paths for a sampled set of destinations per source.
		for b := a % 7; b < n; b += 7 {
			src, dst := roadnet.EdgeID(a), roadnet.EdgeID(b)
			wp, gp := tab.Path(src, dst), h.Path(src, dst)
			if len(wp) != len(gp) {
				t.Fatalf("%s: Path(%d,%d) len %d, table %d", label, a, b, len(gp), len(wp))
			}
			for i := range wp {
				if wp[i] != gp[i] {
					t.Fatalf("%s: Path(%d,%d)[%d] = %d, table %d", label, a, b, i, gp[i], wp[i])
				}
			}
		}
	}
}

func TestHierMatchesTableRandomGraphs(t *testing.T) {
	for _, tc := range []struct {
		nv, ne int
		seed   int64
	}{
		{8, 20, 1}, {12, 40, 2}, {16, 60, 3}, {20, 80, 4}, {25, 110, 5},
	} {
		g := randomGraph(t, tc.nv, tc.ne, tc.seed)
		checkHierMatchesTable(t, g, NewHier(g), "random")
	}
}

func TestHierMatchesTableCity(t *testing.T) {
	for _, opt := range []gen.CityOptions{
		{Rows: 5, Cols: 5, Spacing: 150, PosJitter: 0.2, RemoveEdgeProb: 0.1, Seed: 7},
		// Zero jitter gives a uniform grid: every weight identical, maximal
		// shortest-path ties — the hardest case for canonical tie-breaking.
		{Rows: 5, Cols: 4, Spacing: 100, PosJitter: 0, RemoveEdgeProb: 0, Seed: 1},
	} {
		g, err := gen.City(opt)
		if err != nil {
			t.Fatal(err)
		}
		checkHierMatchesTable(t, g, NewHier(g), "city")
	}
}

// TestHierMemoryScalesLinearly is the regression gate against an accidental
// O(|E|²) structure sneaking back in: per-edge memory may drift only by a
// small constant across a 16x growth in |E|, while the all-pairs table grows
// its per-edge cost 16-fold.
func TestHierMemoryScalesLinearly(t *testing.T) {
	base := gen.CityOptions{Rows: 6, Cols: 6, Spacing: 150, PosJitter: 0.2, RemoveEdgeProb: 0.08, Seed: 3}
	type point struct {
		edges   int
		perEdge float64
	}
	var pts []point
	for _, factor := range []int{1, 4, 16} {
		opt, err := base.Scale(factor)
		if err != nil {
			t.Fatal(err)
		}
		g, err := gen.City(opt)
		if err != nil {
			t.Fatal(err)
		}
		h := NewHier(g)
		pts = append(pts, point{g.NumEdges(), float64(h.MemoryBytes()) / float64(g.NumEdges())})
	}
	for i := 1; i < len(pts); i++ {
		if ratio := pts[i].perEdge / pts[0].perEdge; ratio > 3 {
			t.Fatalf("per-edge memory grew %.2fx from %d to %d edges — super-linear structure",
				ratio, pts[0].edges, pts[i].edges)
		}
	}
	// At the largest graph the search scratch must cost at most 10% of the
	// all-pairs table (analytically: n rows of n preds + n dists each).
	last := pts[len(pts)-1]
	n := last.edges
	tableBytes := float64(n) * (2*sliceHeaderBytes + float64(n)*(edgeIDBytes+float64Bytes))
	if hierBytes := last.perEdge * float64(n); hierBytes > tableBytes/10 {
		t.Fatalf("hier %d bytes vs table %.0f bytes at %d edges — over the 10%% budget",
			int(hierBytes), tableBytes, n)
	}
}

// TestHierSnapshotRoundTrip runs the perf ledger's boot sequence through the
// compatibility entry points — NewHierWith, SaveSnapshot, OpenHierMapped —
// and checks the Hier it ends with against Table on every method.
func TestHierSnapshotRoundTrip(t *testing.T) {
	g := randomGraph(t, 18, 60, 21)
	path := filepath.Join(t.TempDir(), "sp.prsp")
	if err := NewHierWith(g, HierOptions{}).SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	m, err := OpenHierMapped(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	checkHierMatchesTable(t, g, m, "compat boot")
}

// Framing of the retired PRSP v2 snapshot file, enough to cut and flip
// testdata/prsp_v2.bin at its section boundaries: a header (magic, version,
// graph fingerprint, |E|, section count), its CRC, a directory of
// (id, offset, length, CRC) entries, its CRC, then the section payloads.
const (
	prspHeaderLen   = 24
	prspDirEntryLen = 24
)

// FuzzSnapshotOpen throws arbitrary bytes at the snapshot path of the perf
// ledger's boot sequence (NewHierWith, SaveSnapshot, OpenHierMapped). The
// seeds are the PRSP v2 file the retired hierarchy wrote for this graph,
// each truncation at a section boundary and one flipped byte inside every
// section. Whatever the file holds, the open must succeed and the index
// must answer every Dist, GapDist, SPEnd and Path exactly like the table —
// including the resealed forgeries the old decoder could only be held to
// no-panic — and one resumed search per source, asked about destinations
// in the order the bytes spell, must match too. With save set,
// SaveSnapshot runs over the file first and must leave its bytes as they
// were.
func FuzzSnapshotOpen(f *testing.F) {
	vs := make([]roadnet.Vertex, 4)
	for i := range vs {
		vs[i] = roadnet.Vertex{ID: roadnet.VertexID(i), Pos: geo.Point{X: float64(i), Y: float64(i % 2)}}
	}
	g, err := roadnet.NewGraph(vs, []roadnet.Edge{
		{ID: 0, From: 0, To: 1, Weight: 1},
		{ID: 1, From: 1, To: 2, Weight: 2},
		{ID: 2, From: 2, To: 3, Weight: 1},
		{ID: 3, From: 3, To: 0, Weight: 3},
		{ID: 4, From: 0, To: 2, Weight: 5},
		{ID: 5, From: 2, To: 0, Weight: 4},
	})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join("testdata", "prsp_v2.bin"))
	if err != nil {
		f.Fatal(err)
	}
	flip := func(i int) []byte {
		b := bytes.Clone(valid)
		b[i] ^= 1
		return b
	}
	f.Add(valid, false)
	f.Add([]byte{}, false)
	f.Add(flip(prspHeaderLen), false) // header CRC
	nsec := int(binary.LittleEndian.Uint32(valid[20:24]))
	dirEnd := prspHeaderLen + 4 + prspDirEntryLen*nsec
	f.Add(flip(dirEnd), false) // directory CRC
	for _, cut := range []int{prspHeaderLen, prspHeaderLen + 4, dirEnd, dirEnd + 4} {
		f.Add(valid[:cut], false)
	}
	for i := 0; i < nsec; i++ {
		e := valid[prspHeaderLen+4+prspDirEntryLen*i:]
		off := int(binary.LittleEndian.Uint64(e[4:12]))
		length := int(binary.LittleEndian.Uint64(e[12:20]))
		f.Add(valid[:off+length/2], false)
		f.Add(valid[:off+length], false)
		if length > 0 {
			f.Add(flip(off+length/2), false)
			f.Add(flip(off+length/2), true)
		}
	}

	tab := NewTable(g)
	tab.PrecomputeAll()
	f.Fuzz(func(t *testing.T, data []byte, save bool) {
		path := filepath.Join(t.TempDir(), "sp.prsp")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		if save {
			if err := NewHierWith(g, HierOptions{}).SaveSnapshot(path); err != nil {
				t.Fatalf("SaveSnapshot: %v", err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("SaveSnapshot changed the file (err %v)", err)
			}
		}
		h, err := OpenHierMapped(path, g)
		if err != nil {
			t.Fatalf("OpenHierMapped: %v", err)
		}
		defer h.Close()
		n := g.NumEdges()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				src, dst := roadnet.EdgeID(a), roadnet.EdgeID(b)
				if got, want := h.Dist(src, dst), tab.Dist(src, dst); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Dist(%d,%d) = %v, table %v", a, b, got, want)
				}
				if got, want := h.GapDist(src, dst), tab.GapDist(src, dst); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("GapDist(%d,%d) = %v, table %v", a, b, got, want)
				}
				if got, want := h.SPEnd(src, dst), tab.SPEnd(src, dst); got != want {
					t.Fatalf("SPEnd(%d,%d) = %d, table %d", a, b, got, want)
				}
				if got, want := h.Path(src, dst), tab.Path(src, dst); !slices.Equal(got, want) {
					t.Fatalf("Path(%d,%d) = %v, table %v", a, b, got, want)
				}
			}
		}
		if len(data) > 64 {
			data = data[:64]
		}
		checkSearchesMatchTable(t, tab, h, data, int64(len(data)))
	})
}

// Two routes of equal true length whose weights sum in a different float
// order: 0.1+0.2 rounds to 0.30000000000000004, one ULP above 0.3. Dist,
// GapDist and Path must still equal Table's bit for bit, because both run
// the same left-to-right accumulation.
func TestHierNearTieMatchesTable(t *testing.T) {
	// Vertices 0..4; source edge s = 0→1, destination edge d = 3→4.
	// Route A: 1→2 (0.1), 2→3 (0.2). Route B: 1→3 (0.3).
	vs := make([]roadnet.Vertex, 5)
	for i := range vs {
		vs[i] = roadnet.Vertex{ID: roadnet.VertexID(i)}
	}
	es := []roadnet.Edge{
		{ID: 0, From: 0, To: 1, Weight: 1},
		{ID: 1, From: 1, To: 2, Weight: 0.1},
		{ID: 2, From: 2, To: 3, Weight: 0.2},
		{ID: 3, From: 1, To: 3, Weight: 0.3},
		{ID: 4, From: 3, To: 4, Weight: 0.7},
	}
	g, err := roadnet.NewGraph(vs, es)
	if err != nil {
		t.Fatal(err)
	}
	// The premise: the routes tie in real arithmetic but not in float, so
	// the canonical path to edge 3 is route B.
	if a, b := g.Edge(1).Weight+g.Edge(2).Weight, g.Edge(3).Weight; a == b {
		t.Fatalf("route sums %v and %v tie in float; the test needs a near-tie", a, b)
	}
	checkHierMatchesTable(t, g, NewHier(g), "near-tie")
	tab, h := NewTable(g), NewHier(g)
	if got := tab.Path(0, 3); !slices.Equal(got, []roadnet.EdgeID{0, 3}) {
		t.Fatalf("table Path(0,3) = %v, want route B [0 3]", got)
	}
	for _, dst := range []roadnet.EdgeID{3, 4} {
		if got, want := h.Path(0, dst), tab.Path(0, dst); !slices.Equal(got, want) {
			t.Fatalf("Path(0,%d) = %v, table %v", dst, got, want)
		}
		if got, want := h.GapDist(0, dst), tab.GapDist(0, dst); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("GapDist(0,%d) = %v, table %v", dst, got, want)
		}
	}
}

func TestHierConcurrentQueries(t *testing.T) {
	g := randomGraph(t, 20, 70, 91)
	h := NewHier(g)
	tab := NewTable(g)
	tab.PrecomputeAll()
	n := g.NumEdges()
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One search held open across the whole loop, beside the
			// one-shot queries drawing on the same pool.
			src := roadnet.EdgeID(w % n)
			s := h.From(src)
			defer s.Close()
			for i := 0; i < 400; i++ {
				a := roadnet.EdgeID((i*7 + w*13) % n)
				b := roadnet.EdgeID((i*11 + w*3) % n)
				if got, want := s.SPEnd(b), tab.SPEnd(src, b); got != want {
					errc <- errors.New("concurrent From mismatch")
					return
				}
				if got, want := h.Dist(a, b), tab.Dist(a, b); math.Float64bits(got) != math.Float64bits(want) {
					errc <- errors.New("concurrent Dist mismatch")
					return
				}
				if got, want := h.SPEnd(a, b), tab.SPEnd(a, b); got != want {
					errc <- errors.New("concurrent SPEnd mismatch")
					return
				}
				if got, want := h.Path(a, b), tab.Path(a, b); !slices.Equal(got, want) {
					errc <- errors.New("concurrent Path mismatch")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// withDeadEnds returns g plus two one-way spurs off vertex 0: a dead-end
// edge 0→x, from which no other edge is reachable, and an edge y→0 that no
// other edge reaches. The ring randomGraph builds is strongly connected, so
// these spurs are what give its searches unreachable destinations.
func withDeadEnds(t testing.TB, g *roadnet.Graph) *roadnet.Graph {
	t.Helper()
	vs := slices.Clone(g.Vertices)
	es := slices.Clone(g.Edges)
	x, y := roadnet.VertexID(len(vs)), roadnet.VertexID(len(vs)+1)
	vs = append(vs, roadnet.Vertex{ID: x, Pos: vs[0].Pos}, roadnet.Vertex{ID: y, Pos: vs[0].Pos})
	es = append(es,
		roadnet.Edge{ID: roadnet.EdgeID(len(es)), From: 0, To: x, Weight: 2},
		roadnet.Edge{ID: roadnet.EdgeID(len(es) + 1), From: y, To: 0, Weight: 3})
	out, err := roadnet.NewGraph(vs, es)
	if err != nil {
		t.Fatalf("NewGraph: %v", err)
	}
	return out
}

// checkSearchesMatchTable opens one h.From(src) and one tab.From(src) per
// source and asks both for a destination sequence: order's bytes (mod |E|),
// then every edge in a seeded shuffle (src itself and, on a graph with dead
// ends, unreachable edges among them), then order's bytes again, all
// already settled by then. Every answer must equal tab.SPEnd(src, dst).
func checkSearchesMatchTable(t *testing.T, tab *Table, h *Hier, order []byte, seed int64) {
	t.Helper()
	n := tab.Graph().NumEdges()
	rng := rand.New(rand.NewSource(seed))
	var seq []roadnet.EdgeID
	for _, b := range order {
		seq = append(seq, roadnet.EdgeID(int(b)%n))
	}
	for _, e := range rng.Perm(n) {
		seq = append(seq, roadnet.EdgeID(e))
	}
	seq = append(seq, seq[:len(order)]...)
	for a := 0; a < n; a++ {
		src := roadnet.EdgeID(a)
		hs, ts := h.From(src), tab.From(src)
		for i, dst := range seq {
			want := tab.SPEnd(src, dst)
			if got := hs.SPEnd(dst); got != want {
				t.Fatalf("Hier.From(%d).SPEnd(%d) = %d at step %d, table %d", a, dst, got, i, want)
			}
			if got := ts.SPEnd(dst); got != want {
				t.Fatalf("Table.From(%d).SPEnd(%d) = %d at step %d, table %d", a, dst, got, i, want)
			}
		}
		hs.Close()
		ts.Close()
	}
}

// A search resumed across destinations in any order answers exactly as one
// SPEnd per destination does, on graphs with unreachable edges too.
func TestHierFromMatchesTable(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nv := 3 + rng.Intn(20)
		g := randomGraph(t, nv, nv+rng.Intn(3*nv), seed)
		if seed%2 == 0 {
			g = withDeadEnds(t, g)
		}
		order := make([]byte, rng.Intn(24))
		rng.Read(order)
		checkSearchesMatchTable(t, NewTable(g), NewHier(g), order, seed)
	}
}

// FuzzHierVsTable cross-checks the search against the all-pairs table on
// fuzzer-chosen graph shapes: full Dist/GapDist/SPEnd equality, bounded path
// walks, and one resumed search per source asked about destinations in an
// order the fuzzer chooses. Any divergence crashes the fuzzer with the
// offending topology in the corpus.
func FuzzHierVsTable(f *testing.F) {
	f.Add(uint8(8), uint8(24), int64(1), false, []byte{3, 3, 0, 17})
	f.Add(uint8(12), uint8(40), int64(7), true, []byte{9, 1, 40, 2, 2})
	f.Add(uint8(5), uint8(5), int64(99), true, []byte{})
	f.Fuzz(func(t *testing.T, nvRaw, neRaw uint8, seed int64, deadEnds bool, order []byte) {
		nv := 3 + int(nvRaw)%22      // 3..24 vertices
		ne := nv + int(neRaw)%(3*nv) // ring + up to 3·nv chords
		g := randomGraph(t, nv, ne, seed)
		if deadEnds {
			g = withDeadEnds(t, g)
		}
		if len(order) > 64 {
			order = order[:64]
		}
		tab := NewTable(g)
		h := NewHier(g)
		n := g.NumEdges()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				src, dst := roadnet.EdgeID(a), roadnet.EdgeID(b)
				wd, gd := tab.Dist(src, dst), h.Dist(src, dst)
				if math.Float64bits(wd) != math.Float64bits(gd) {
					t.Fatalf("Dist(%d,%d) = %v, table %v", a, b, gd, wd)
				}
				if we, ge := tab.SPEnd(src, dst), h.SPEnd(src, dst); we != ge {
					t.Fatalf("SPEnd(%d,%d) = %d, table %d", a, b, ge, we)
				}
				wg, gg := tab.GapDist(src, dst), h.GapDist(src, dst)
				if math.Float64bits(wg) != math.Float64bits(gg) {
					t.Fatalf("GapDist(%d,%d) = %v, table %v", a, b, gg, wg)
				}
			}
			// One bounded path walk per source.
			dst := roadnet.EdgeID((a*5 + 3) % n)
			wp, gp := tab.Path(roadnet.EdgeID(a), dst), h.Path(roadnet.EdgeID(a), dst)
			if len(wp) != len(gp) {
				t.Fatalf("Path(%d,%d) len %d, table %d", a, dst, len(gp), len(wp))
			}
			for i := range wp {
				if wp[i] != gp[i] {
					t.Fatalf("Path(%d,%d)[%d] diverges", a, dst, i)
				}
			}
		}
		checkSearchesMatchTable(t, tab, h, order, seed)
	})
}

// The query-path mirror of wire's TestDecodeAllocFree: once warmed, the
// pooled, epoch-stamped search must answer Dist, GapDist, SPEnd and a From,
// SPEnd, Close sequence without a single heap allocation.
func TestHierQueryAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode makes sync.Pool drop items at random; alloc counts are meaningless")
	}
	g := randomGraph(t, 25, 100, 77)
	h := NewHier(g)
	n := g.NumEdges()
	pairs := [][2]roadnet.EdgeID{}
	for i := 0; i < 32; i++ {
		pairs = append(pairs, [2]roadnet.EdgeID{
			roadnet.EdgeID((i * 7) % n), roadnet.EdgeID((i*13 + 5) % n),
		})
	}
	query := func() {
		for _, p := range pairs {
			h.Dist(p[0], p[1])
			h.GapDist(p[0], p[1])
			h.SPEnd(p[0], p[1])
			s := h.From(p[0])
			s.SPEnd(p[1])
			s.Close()
		}
	}
	query() // warm: pool a context and grow its heap

	// A GC between runs could empty the context pool and make the next run
	// re-allocate through no fault of the query path; pin the world still.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(100, query); allocs != 0 {
		t.Fatalf("warm query allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkHierQueryHot is the allocgate-gated steady-state benchmark: a
// warmed Hier answering a fixed query mix. scripts/allocgate.sh fails
// CI if this reports any allocs/op.
func BenchmarkHierQueryHot(b *testing.B) {
	g := randomGraph(b, 40, 160, 2024)
	h := NewHier(g)
	n := g.NumEdges()
	pairs := make([][2]roadnet.EdgeID, 64)
	for i := range pairs {
		pairs[i] = [2]roadnet.EdgeID{roadnet.EdgeID((i * 31) % n), roadnet.EdgeID((i*17 + 9) % n)}
	}
	query := func(p [2]roadnet.EdgeID) {
		h.Dist(p[0], p[1])
		h.GapDist(p[0], p[1])
		h.SPEnd(p[0], p[1])
		s := h.From(p[0])
		s.SPEnd(p[1])
		s.Close()
	}
	for _, p := range pairs { // warm the pool and the heap
		query(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query(pairs[i%len(pairs)])
	}
}
