package spindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"press/internal/gen"
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

func TestHierBuildDeterministic(t *testing.T) {
	g := randomGraph(t, 15, 50, 42)
	var a, b bytes.Buffer
	if _, err := NewHier(g).WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := NewHier(g).WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two builds over the same graph serialized differently")
	}
}

func TestHierShortcutsBounded(t *testing.T) {
	g := randomGraph(t, 30, 120, 13)
	h := NewHier(g)
	if h.shortcuts < 0 || h.ArcCount() < h.shortcuts {
		t.Fatalf("implausible arc accounting: %d arcs, %d shortcuts", h.ArcCount(), h.shortcuts)
	}
	// CH over a sparse graph must stay near-linear: allow a generous
	// constant, catch anything quadratic.
	if max := 20 * g.NumEdges(); h.ArcCount() > max {
		t.Fatalf("%d arcs for %d edges — contraction exploded", h.ArcCount(), g.NumEdges())
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
	// At the largest graph the hierarchy must cost at most 10% of the
	// all-pairs table (analytically: n rows of n preds + n dists each).
	last := pts[len(pts)-1]
	n := last.edges
	tableBytes := float64(n) * (2*sliceHeaderBytes + float64(n)*(edgeIDBytes+float64Bytes))
	if hierBytes := last.perEdge * float64(n); hierBytes > tableBytes/10 {
		t.Fatalf("hier %d bytes vs table %.0f bytes at %d edges — over the 10%% budget",
			int(hierBytes), tableBytes, n)
	}
}

func TestHierSnapshotRoundTrip(t *testing.T) {
	g := randomGraph(t, 18, 60, 21)
	h := NewHier(g)
	dir := t.TempDir()
	path := filepath.Join(dir, "hier.snap")
	if err := h.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	m, err := OpenHierMapped(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.EnsureValid(); err != nil {
		t.Fatalf("EnsureValid: %v", err)
	}
	if !m.Mapped() || m.MappedBytes() <= 0 {
		t.Fatal("mapped hierarchy must report mapped bytes")
	}
	if m.shortcuts != h.shortcuts || m.ArcCount() != h.ArcCount() {
		t.Fatalf("counts drifted through the snapshot: %d/%d vs %d/%d",
			m.shortcuts, m.ArcCount(), h.shortcuts, h.ArcCount())
	}
	checkHierMatchesTable(t, g, m, "mapped")
	// Re-exporting the mapped hierarchy must reproduce the file bit for bit.
	var buf bytes.Buffer
	if _, err := m.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), onDisk) {
		t.Fatal("mapped re-export differs from the file")
	}
}

func TestHierSnapshotOpenErrors(t *testing.T) {
	g := randomGraph(t, 10, 30, 33)
	other := randomGraph(t, 10, 30, 34)
	h := NewHier(g)
	var buf bytes.Buffer
	if _, err := h.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	wantBad := func(t *testing.T, data []byte) {
		t.Helper()
		if _, err := parseHierSnapshot(data, g); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("want ErrBadSnapshot, got %v", err)
		}
	}
	t.Run("truncated", func(t *testing.T) {
		wantBad(t, valid[:10])
		wantBad(t, valid[:snapHeaderLen+4])
	})
	t.Run("magic", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[0] ^= 0xFF
		wantBad(t, bad)
	})
	t.Run("header-crc", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[16] ^= 1 // edge count
		wantBad(t, bad)
	})
	t.Run("dir-crc", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[snapHeaderLen+4+4] ^= 1 // first directory entry's offset
		wantBad(t, bad)
	})
	t.Run("mismatch", func(t *testing.T) {
		if _, err := parseHierSnapshot(valid, other); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("want ErrSnapshotMismatch, got %v", err)
		}
	})
	t.Run("version-confusion", func(t *testing.T) {
		// A file claiming the retired all-pairs layout (version 1) must be a
		// typed failure, not a panic or silent nonsense.
		bad := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(bad[4:8], 1)
		binary.LittleEndian.PutUint32(bad[snapHeaderLen:], crc32.ChecksumIEEE(bad[:snapHeaderLen]))
		wantBad(t, bad)
	})
}

// TestHierSnapshotFirstTouchDegrades is the validate-on-first-touch
// contract: payload damage is invisible to the (header-only) open, surfaces
// on EnsureValid, and Dist degrades to the early-stopped Dijkstra SPEnd and
// Path always run — Table's answers on every pair, no rows held — instead of
// serving damaged sections.
func TestHierSnapshotFirstTouchDegrades(t *testing.T) {
	g := randomGraph(t, 12, 40, 55)
	h := NewHier(g)
	dir := t.TempDir()
	path := filepath.Join(dir, "hier.snap")
	if err := h.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte mid-file: inside a bulk section payload (the arcs or an
	// adjacency list), past the header and directory the open validates.
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenHierMapped(path, g)
	if err != nil {
		t.Fatalf("open must stay header-only and succeed, got %v", err)
	}
	defer m.Close()
	if err := m.EnsureValid(); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("EnsureValid = %v, want ErrBadSnapshot", err)
	}
	tab := NewTable(g)
	n := g.NumEdges()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			src, dst := roadnet.EdgeID(a), roadnet.EdgeID(b)
			if got, want := m.Dist(src, dst), tab.Dist(src, dst); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("degraded Dist(%d,%d) = %v, want %v", a, b, got, want)
			}
			if got, want := m.SPEnd(src, dst), tab.SPEnd(src, dst); got != want {
				t.Fatalf("degraded SPEnd(%d,%d) = %d, want %d", a, b, got, want)
			}
			if got, want := m.Path(src, dst), tab.Path(src, dst); !slices.Equal(got, want) {
				t.Fatalf("degraded Path(%d,%d) = %v, want %v", a, b, got, want)
			}
		}
	}
	if got := m.MemoryBytes(); got != 0 {
		t.Fatalf("degraded mapping holds %d heap bytes, want 0", got)
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

// FuzzHierVsTable cross-checks the hierarchy against the all-pairs table on
// fuzzer-chosen graph shapes: full Dist/SPEnd equality, bounded path walks,
// and one resumed search per source asked about destinations in an order
// the fuzzer chooses. Any divergence — including the float near-tie class
// the design documents for Dist — crashes the fuzzer with the offending
// topology in the corpus.
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
