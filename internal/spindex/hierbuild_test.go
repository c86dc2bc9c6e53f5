package spindex

import (
	"bytes"
	"math"
	"runtime/debug"
	"testing"

	"press/internal/roadnet"
)

// snapshotBytes serializes h for byte-level comparison.
func snapshotBytes(t testing.TB, h *Hier) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := h.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The tentpole determinism contract: the batched parallel build must
// produce a byte-identical hierarchy — and therefore a byte-identical
// PRSP v2 snapshot — at every worker count.
func TestHierBuildWorkersByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		nv, ne int
		seed   int64
	}{
		{15, 50, 42},
		{25, 100, 7},
		{40, 160, 123},
	} {
		g := randomGraph(t, tc.nv, tc.ne, tc.seed)
		want := snapshotBytes(t, NewHierWith(g, HierOptions{BuildWorkers: 1}))
		for _, w := range []int{2, 4, 8} {
			got := snapshotBytes(t, NewHierWith(g, HierOptions{BuildWorkers: w}))
			if !bytes.Equal(want, got) {
				t.Fatalf("graph(%d,%d,%d): workers=%d snapshot differs from workers=1 (%d vs %d bytes)",
					tc.nv, tc.ne, tc.seed, w, len(got), len(want))
			}
		}
	}
}

// An 8-worker build under -race: the concurrent plan collection must be
// data-race free and the result must still answer bit-identically to the
// all-pairs table.
func TestHierConcurrentBuild8Workers(t *testing.T) {
	g := randomGraph(t, 30, 120, 17)
	h := NewHierWith(g, HierOptions{BuildWorkers: 8})
	if h.BuildWorkers() != 8 {
		t.Fatalf("BuildWorkers() = %d, want 8", h.BuildWorkers())
	}
	checkHierMatchesTable(t, g, h, "workers=8")
}

// FuzzHierBuildDeterminism drives random graph shapes through the batched
// build at 1/2/4/8 workers and requires identical snapshot bytes.
func FuzzHierBuildDeterminism(f *testing.F) {
	f.Add(uint8(8), uint8(24), int64(1))
	f.Add(uint8(12), uint8(40), int64(7))
	f.Add(uint8(20), uint8(60), int64(99))
	f.Fuzz(func(t *testing.T, nvRaw, neRaw uint8, seed int64) {
		nv := 3 + int(nvRaw)%22      // 3..24 vertices
		ne := nv + int(neRaw)%(3*nv) // ring + up to 3·nv chords
		g := randomGraph(t, nv, ne, seed)
		want := snapshotBytes(t, NewHierWith(g, HierOptions{BuildWorkers: 1}))
		for _, w := range []int{2, 4, 8} {
			if got := snapshotBytes(t, NewHierWith(g, HierOptions{BuildWorkers: w})); !bytes.Equal(want, got) {
				t.Fatalf("graph(%d,%d,%d): workers=%d snapshot differs from workers=1", nv, ne, seed, w)
			}
		}
	})
}

func TestResolveWitnessCap(t *testing.T) {
	for _, tc := range []struct {
		knob, arcs, n, want int
	}{
		{7, 1000, 10, 7},                          // explicit knob wins
		{0, 0, 0, hierWitnessSettleCap},           // empty graph: floor
		{0, 100, 100, hierWitnessSettleCap},       // sparse: clamped to floor
		{0, 1000, 100, 400},                       // dense: 40·10
		{0, 10000, 100, hierWitnessSettleCapMax},  // very dense: ceiling
		{-1, 10000, 100, hierWitnessSettleCapMax}, // non-positive knob = auto
	} {
		if got := resolveWitnessCap(tc.knob, tc.arcs, tc.n); got != tc.want {
			t.Errorf("resolveWitnessCap(%d, %d, %d) = %d, want %d", tc.knob, tc.arcs, tc.n, got, tc.want)
		}
	}
}

// A pathologically small witness cap may only cost extra shortcuts, never a
// wrong answer.
func TestHierTinyWitnessCapStillExact(t *testing.T) {
	g := randomGraph(t, 18, 60, 5)
	h := NewHierWith(g, HierOptions{WitnessSettleCap: 1})
	if h.WitnessCap() != 1 {
		t.Fatalf("WitnessCap() = %d, want 1", h.WitnessCap())
	}
	checkHierMatchesTable(t, g, h, "witnesscap=1")
}

// The unpack cache must fill on first traversals, hit on repeats, and its
// presence must not change a single answer.
func TestHierUnpackCache(t *testing.T) {
	g := randomGraph(t, 25, 100, 31)
	h := NewHierWith(g, HierOptions{})
	h.expandAfter = 1 << 30 // keep queries on the CH path
	bare := NewHierWith(g, HierOptions{UnpackCacheEntries: -1})
	bare.expandAfter = 1 << 30
	if bare.unpack != nil {
		t.Fatal("UnpackCacheEntries=-1 did not disable the cache")
	}
	n := g.NumEdges()
	for pass := 0; pass < 2; pass++ {
		for a := 0; a < n; a++ {
			for _, b := range []int{(a*5 + 3) % n, (a*11 + 1) % n} {
				src, dst := roadnet.EdgeID(a), roadnet.EdgeID(b)
				if got, want := h.Dist(src, dst), bare.Dist(src, dst); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Dist(%d,%d) = %v with cache, %v without", a, b, got, want)
				}
				wp, gp := bare.Path(src, dst), h.Path(src, dst)
				if len(wp) != len(gp) {
					t.Fatalf("Path(%d,%d) len %d with cache, %d without", a, b, len(gp), len(wp))
				}
				for i := range wp {
					if wp[i] != gp[i] {
						t.Fatalf("Path(%d,%d)[%d] diverges under the unpack cache", a, b, i)
					}
				}
			}
		}
		hits, misses, bytes := h.UnpackCacheStats()
		if pass == 0 && h.shortcuts > 0 && misses == 0 {
			t.Fatal("cold pass recorded no unpack misses")
		}
		if pass == 1 && h.shortcuts > 0 {
			if hits == 0 {
				t.Fatal("warm pass recorded no unpack hits")
			}
			if bytes == 0 {
				t.Fatal("populated unpack cache reports zero bytes")
			}
		}
	}
	if bh, bm, bb := bare.UnpackCacheStats(); bh != 0 || bm != 0 || bb != 0 {
		t.Fatalf("disabled cache reports stats (%d, %d, %d)", bh, bm, bb)
	}
}

func TestHierUnpackCacheEviction(t *testing.T) {
	c := newUnpackCache(2)
	c.put(1, []roadnet.EdgeID{10, 11})
	c.put(2, []roadnet.EdgeID{20})
	c.put(3, []roadnet.EdgeID{30, 31, 32})
	if _, ok := c.get(1); ok {
		t.Fatal("LRU tail survived eviction")
	}
	if _, ok := c.get(3); !ok {
		t.Fatal("fresh entry evicted")
	}
	_, _, bytes := c.stats()
	want := 4*edgeIDBytes + 2*(unpackEntryOverhead+sliceHeaderBytes)
	if bytes != want {
		t.Fatalf("cache bytes = %d, want %d", bytes, want)
	}
}

// The satellite fix: RowCacheBytes must account the exact-row LRU's arrays,
// per-row bookkeeping and miss tally exactly, and MemoryBytes must include
// it. Verified against manual accounting over the live rows.
func TestHierRowCacheBytesExact(t *testing.T) {
	g := randomGraph(t, 20, 70, 3)
	h := NewHier(g)
	if h.RowCacheBytes() != 0 {
		t.Fatalf("empty row cache reports %d bytes", h.RowCacheBytes())
	}
	base := h.MemoryBytes()
	rows := []*hierRow{h.expandRow(0), h.expandRow(3), h.expandRow(5)}
	h.peekRow(7, true) // one miss-tally entry, no row
	want := 0
	for _, r := range rows {
		want += cap(r.pred)*edgeIDBytes + sliceHeaderBytes
		want += cap(r.dist)*float64Bytes + sliceHeaderBytes
		want += hierRowOverhead
	}
	want += 1 * (edgeIDBytes + 8)
	if got := h.RowCacheBytes(); got != want {
		t.Fatalf("RowCacheBytes() = %d, want %d", got, want)
	}
	if got := h.MemoryBytes(); got != base+want {
		t.Fatalf("MemoryBytes() = %d, want base %d + rows %d", got, base, want)
	}
}

// The query-path mirror of wire's TestDecodeAllocFree: once warmed, the CH
// fast path — pooled context, epoch-stamped arrays, unpack-cache hits —
// must answer Dist and GapDist without a single heap allocation.
func TestHierQueryAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode makes sync.Pool drop items at random; alloc counts are meaningless")
	}
	g := randomGraph(t, 25, 100, 77)
	h := NewHier(g)
	h.expandAfter = 1 << 30 // stay on the CH path; rows have their own test
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
		}
	}
	query() // warm: pool a context, grow its buffers, populate the unpack cache

	// A GC between runs could empty the context pool and make the next run
	// re-allocate through no fault of the query path; pin the world still.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(100, query); allocs != 0 {
		t.Fatalf("warm CH query allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkHierQueryHot is the allocgate-gated steady-state benchmark: a
// warmed hierarchy answering a fixed query mix. scripts/allocgate.sh fails
// CI if this reports any allocs/op.
func BenchmarkHierQueryHot(b *testing.B) {
	g := randomGraph(b, 40, 160, 2024)
	h := NewHier(g)
	h.expandAfter = 1 << 30
	n := g.NumEdges()
	pairs := make([][2]roadnet.EdgeID, 64)
	for i := range pairs {
		pairs[i] = [2]roadnet.EdgeID{roadnet.EdgeID((i * 31) % n), roadnet.EdgeID((i*17 + 9) % n)}
	}
	for _, p := range pairs { // warm pool, buffers and unpack cache
		h.Dist(p[0], p[1])
		h.GapDist(p[0], p[1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		h.Dist(p[0], p[1])
		h.GapDist(p[0], p[1])
	}
}

// BenchmarkHierBuild tracks the sequential contraction cost.
func BenchmarkHierBuild(b *testing.B) {
	g := randomGraph(b, 120, 500, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewHierWith(g, HierOptions{BuildWorkers: 1})
	}
}
