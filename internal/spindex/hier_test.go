package spindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
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
			if wr, gr := tab.Reachable(src, dst), h.Reachable(src, dst); wr != gr {
				t.Fatalf("%s: Reachable(%d,%d) = %v, table %v", label, a, b, gr, wr)
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
		// Pure CH answers first: an absurd expansion threshold keeps the
		// row fallback out of the picture, so every Dist/SPEnd below
		// exercises the bidirectional search and the canonical local rule.
		h := NewHier(g)
		h.expandAfter = 1 << 30
		checkHierMatchesTable(t, g, h, "pure-CH")
		if h.CachedRows() != 0 {
			t.Fatalf("pure-CH sweep expanded %d rows", h.CachedRows())
		}
		// Then the production configuration, where hot sources expand rows:
		// answers must be identical either way.
		checkHierMatchesTable(t, g, NewHier(g), "with-LRU")
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
		h := NewHier(g)
		h.expandAfter = 1 << 30
		checkHierMatchesTable(t, g, h, "city-pure-CH")
		checkHierMatchesTable(t, g, NewHier(g), "city-with-LRU")
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

func TestHierRowLRU(t *testing.T) {
	g := randomGraph(t, 20, 70, 9)
	h := NewHierWith(g, HierOptions{RowCacheRows: 2})
	tab := NewTable(g)
	n := g.NumEdges()
	// Hammer SPEnd from several sources so each crosses the expansion
	// threshold; the LRU must stay within its cap and answers must match.
	for _, src := range []roadnet.EdgeID{0, 3, 7, 11} {
		for b := 0; b < n; b++ {
			dst := roadnet.EdgeID(b)
			if got, want := h.SPEnd(src, dst), tab.SPEnd(src, dst); got != want {
				t.Fatalf("SPEnd(%d,%d) = %d, want %d", src, dst, got, want)
			}
		}
	}
	if got := h.CachedRows(); got > 2 {
		t.Fatalf("LRU holds %d rows, cap 2", got)
	}
	if h.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes must be positive for a heap hierarchy")
	}
	if h.MappedBytes() != 0 || h.Mapped() {
		t.Fatal("heap hierarchy reports mapped bytes")
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
	m.expandAfter = 1 << 30
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
// on EnsureValid, and queries degrade to exact Dijkstra rows — correct
// answers, bounded memory — instead of serving damaged sections.
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
		}
	}
	if m.CachedRows() == 0 {
		t.Fatal("degraded mode should be serving from expanded rows")
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
			for i := 0; i < 400; i++ {
				a := roadnet.EdgeID((i*7 + w*13) % n)
				b := roadnet.EdgeID((i*11 + w*3) % n)
				if got, want := h.Dist(a, b), tab.Dist(a, b); math.Float64bits(got) != math.Float64bits(want) {
					errc <- errors.New("concurrent Dist mismatch")
					return
				}
				if got, want := h.SPEnd(a, b), tab.SPEnd(a, b); got != want {
					errc <- errors.New("concurrent SPEnd mismatch")
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

// FuzzHierVsTable cross-checks the hierarchy against the all-pairs table on
// fuzzer-chosen graph shapes: full Dist/SPEnd equality plus bounded path
// walks. Any divergence — including the float near-tie class the design
// documents — crashes the fuzzer with the offending topology in the corpus.
func FuzzHierVsTable(f *testing.F) {
	f.Add(uint8(8), uint8(24), int64(1))
	f.Add(uint8(12), uint8(40), int64(7))
	f.Add(uint8(5), uint8(5), int64(99))
	f.Fuzz(func(t *testing.T, nvRaw, neRaw uint8, seed int64) {
		nv := 3 + int(nvRaw)%22      // 3..24 vertices
		ne := nv + int(neRaw)%(3*nv) // ring + up to 3·nv chords
		g := randomGraph(t, nv, ne, seed)
		tab := NewTable(g)
		h := NewHier(g)
		h.expandAfter = 1 << 30 // keep the CH path honest, no row fallback
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
	})
}
