package spindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"press/internal/geo"
	"press/internal/roadnet"
)

// saveSnapshot builds a hierarchy over g and writes its snapshot file,
// returning the path and the heap hierarchy it came from.
func saveSnapshot(t *testing.T, g *roadnet.Graph) (string, *Hier) {
	t.Helper()
	h := NewHier(g)
	path := filepath.Join(t.TempDir(), "sp.snap")
	if err := h.SaveSnapshot(path); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	return path, h
}

// openValid maps the snapshot at path and forces its payload validation.
func openValid(t *testing.T, path string, g *roadnet.Graph) *Hier {
	t.Helper()
	m, err := OpenHierMapped(path, g)
	if err != nil {
		t.Fatalf("OpenHierMapped: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	if err := m.EnsureValid(); err != nil {
		t.Fatalf("EnsureValid: %v", err)
	}
	return m
}

// assertSPEqual compares every pair's answer between two SP sources.
func assertSPEqual(t *testing.T, want, got SP) {
	t.Helper()
	n := want.Graph().NumEdges()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			src, dst := roadnet.EdgeID(a), roadnet.EdgeID(b)
			if w, g := want.SPEnd(src, dst), got.SPEnd(src, dst); w != g {
				t.Fatalf("SPEnd(%d,%d) = %d want %d", a, b, g, w)
			}
			if w, g := want.Dist(src, dst), got.Dist(src, dst); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("Dist(%d,%d) = %g want %g", a, b, g, w)
			}
			if w, g := want.GapDist(src, dst), got.GapDist(src, dst); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("GapDist(%d,%d) = %g want %g", a, b, g, w)
			}
			wp, gp := want.Path(src, dst), got.Path(src, dst)
			if len(wp) != len(gp) {
				t.Fatalf("Path(%d,%d) len = %d want %d", a, b, len(gp), len(wp))
			}
			for i := range wp {
				if wp[i] != gp[i] {
					t.Fatalf("Path(%d,%d)[%d] = %d want %d", a, b, i, gp[i], wp[i])
				}
			}
		}
	}
}

// TestSnapshotEquivalence: a hierarchy saved and mapped back answers every
// pair — paths included — exactly like the all-pairs table.
func TestSnapshotEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := randomGraph(t, 10, 24, seed)
		path, _ := saveSnapshot(t, g)
		assertSPEqual(t, NewTable(g), openValid(t, path, g))
	}
}

// TestSnapshotMappedBytesExact pins the mapped-vs-heap accounting split: a
// mapped hierarchy reports exactly the file size as mapped bytes and no
// heap bytes until a query caches something; a heap hierarchy reports the
// mirror image, and the file is exactly its sections plus the framing.
func TestSnapshotMappedBytesExact(t *testing.T) {
	g := randomGraph(t, 9, 20, 11)
	path, h := saveSnapshot(t, g)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	sections := len(h.hierSections())
	// The heap hierarchy's bytes are its flat sections; the meta section
	// (hierMetaLen) is the one payload not held as an array.
	wantSize := int64(snapHeaderLen + 4 + hierDirEntryLen*sections + 4 + h.MemoryBytes() + hierMetaLen)
	if fi.Size() != wantSize {
		t.Fatalf("file size = %d want %d", fi.Size(), wantSize)
	}
	if h.MappedBytes() != 0 {
		t.Fatalf("heap Hier MappedBytes = %d want 0", h.MappedBytes())
	}
	m := openValid(t, path, g)
	if got := m.MappedBytes(); int64(got) != fi.Size() {
		t.Fatalf("MappedBytes = %d want file size %d", got, fi.Size())
	}
	if m.MemoryBytes() != 0 {
		t.Fatalf("MemoryBytes = %d before any query, want 0", m.MemoryBytes())
	}
}

// TestSnapshotTruncated: a file cut anywhere is rejected at open, because
// the directory's extents no longer fit — never mapped and served short.
func TestSnapshotTruncated(t *testing.T) {
	g := randomGraph(t, 6, 12, 5)
	path, _ := saveSnapshot(t, g)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.snap")
	for size := 0; size < len(blob); size += 7 {
		if err := os.WriteFile(cut, blob[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := OpenHierMapped(cut, g)
		if err == nil {
			m.Close()
			t.Fatalf("truncation to %d bytes accepted", size)
		}
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("truncation to %d: err = %v, want ErrBadSnapshot", size, err)
		}
	}
}

// TestSnapshotCorruptByte flips every byte of the file in turn. Header and
// directory damage must fail the open; payload damage must fail the
// first-touch validation — every byte is CRC-protected, so no flip may
// yield a silently different hierarchy.
func TestSnapshotCorruptByte(t *testing.T) {
	g := randomGraph(t, 5, 10, 9)
	path, _ := saveSnapshot(t, g)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		blob[i] ^= 0xFF
		h, err := parseHierSnapshot(bytes.Clone(blob), g)
		if err == nil {
			err = h.EnsureValid()
		}
		blob[i] ^= 0xFF
		if err == nil {
			t.Fatalf("flipped byte %d accepted", i)
		}
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("flipped byte %d: err = %v, want ErrBadSnapshot", i, err)
		}
	}
}

func TestSnapshotFingerprintMismatch(t *testing.T) {
	g := randomGraph(t, 8, 16, 1)
	path, _ := saveSnapshot(t, g)
	// Same shape, different seed: same edge count, different weights.
	other := randomGraph(t, 8, 16, 2)
	if GraphFingerprint(g) == GraphFingerprint(other) {
		t.Fatal("fingerprints collide for different graphs")
	}
	if _, err := OpenHierMapped(path, other); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
	}
	// Different edge count is also a mismatch, not a decode error.
	small := randomGraph(t, 6, 9, 1)
	if _, err := OpenHierMapped(path, small); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
	}
}

// TestSnapshotBadMagicAndVersion: foreign files and unknown versions are
// typed decode errors — including version 1, the retired all-pairs layout,
// so a leftover file from before the hierarchy is a cache miss.
func TestSnapshotBadMagicAndVersion(t *testing.T) {
	g := randomGraph(t, 5, 10, 4)
	path, _ := saveSnapshot(t, g)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte){
		"magic":      func(b []byte) { b[0] = 'X' },
		"version":    func(b []byte) { b[4] = 99 },
		"version-v1": func(b []byte) { binary.LittleEndian.PutUint32(b[4:8], 1) },
	} {
		mutated := bytes.Clone(blob)
		mutate(mutated)
		_, err := parseHierSnapshot(mutated, g)
		if !errors.Is(err, ErrBadSnapshot) || !IsCacheMiss(err) {
			t.Fatalf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}
}

// TestSnapshotConcurrentReaders hammers one freshly mapped hierarchy from
// many goroutines, so the first-touch payload validation itself races the
// first queries (run under -race in CI).
func TestSnapshotConcurrentReaders(t *testing.T) {
	g := randomGraph(t, 8, 18, 6)
	path, _ := saveSnapshot(t, g)
	m, err := OpenHierMapped(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tab := NewTable(g)
	tab.PrecomputeAll()
	n := g.NumEdges()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := roadnet.EdgeID((seed + i) % n)
				b := roadnet.EdgeID((seed + 3*i) % n)
				if m.SPEnd(a, b) != tab.SPEnd(a, b) {
					t.Errorf("concurrent SPEnd(%d,%d) mismatch", a, b)
					return
				}
				m.Path(a, b)
			}
		}(w)
	}
	wg.Wait()
}

// fuzzGraphOnce builds the fixed tiny network the fuzz decoder runs
// against: a 4-cycle with two chords.
var fuzzGraphOnce = sync.OnceValue(func() *roadnet.Graph {
	vs := make([]roadnet.Vertex, 4)
	for i := range vs {
		vs[i] = roadnet.Vertex{ID: roadnet.VertexID(i), Pos: geo.Point{X: float64(i), Y: float64(i % 2)}}
	}
	es := []roadnet.Edge{
		{ID: 0, From: 0, To: 1, Weight: 1},
		{ID: 1, From: 1, To: 2, Weight: 2},
		{ID: 2, From: 2, To: 3, Weight: 1},
		{ID: 3, From: 3, To: 0, Weight: 3},
		{ID: 4, From: 0, To: 2, Weight: 5},
		{ID: 5, From: 2, To: 0, Weight: 4},
	}
	g, err := roadnet.NewGraph(vs, es)
	if err != nil {
		panic(err)
	}
	return g
})

// reseal recomputes every checksum a snapshot carries — each in-bounds
// section's payload CRC, then the directory and header CRCs — so fuzzer
// mutations get past the CRCs to the structural checks behind them.
func reseal(data []byte) []byte {
	if len(data) < snapHeaderLen+4 {
		return data
	}
	b := bytes.Clone(data)
	nsec := int(binary.LittleEndian.Uint32(b[20:24]))
	dirStart := snapHeaderLen + 4
	if dirEnd := dirStart + hierDirEntryLen*nsec; nsec <= 1024 && len(b) >= dirEnd+4 {
		for i := 0; i < nsec; i++ {
			e := b[dirStart+hierDirEntryLen*i:]
			off, n := binary.LittleEndian.Uint64(e[4:12]), binary.LittleEndian.Uint64(e[12:20])
			if off >= uint64(dirEnd+4) && off <= uint64(len(b)) && n <= uint64(len(b))-off {
				binary.LittleEndian.PutUint32(e[20:24], crc32.ChecksumIEEE(b[off:off+n]))
			}
		}
		binary.LittleEndian.PutUint32(b[dirEnd:], crc32.ChecksumIEEE(b[dirStart:dirEnd]))
	}
	binary.LittleEndian.PutUint32(b[snapHeaderLen:], crc32.ChecksumIEEE(b[:snapHeaderLen]))
	return b
}

// FuzzSnapshotOpen throws arbitrary bytes at the snapshot decoder the way a
// serving process meets an untrusted file: parse (header and directory),
// then the first-touch payload validation, then a bounded set of queries.
// Every input must end in a typed ErrBadSnapshot/ErrSnapshotMismatch or in
// answers identical to the table's — a damaged payload degrades to exact
// rows — never in a panic or a hang. With resealed set, the input's
// checksums are recomputed first, so the mutations reach the structural
// validation; a resealed hierarchy that passes it may be a consistent
// forgery whose answers differ, so there only the no-panic, no-hang half
// of the contract is checked.
func FuzzSnapshotOpen(f *testing.F) {
	g := fuzzGraphOnce()
	var buf bytes.Buffer
	if _, err := NewHier(g).WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	flip := func(i int) []byte {
		b := bytes.Clone(valid)
		b[i] ^= 1
		return b
	}
	f.Add(valid, false)
	f.Add([]byte{}, false)
	f.Add(flip(snapHeaderLen), false) // header CRC
	nsec := int(binary.LittleEndian.Uint32(valid[20:24]))
	dirEnd := snapHeaderLen + 4 + hierDirEntryLen*nsec
	f.Add(flip(dirEnd), false) // directory CRC
	// Truncations at every section boundary, and one flipped byte inside
	// every payload — caught by its CRC as is, by the structural checks
	// once resealed.
	for _, cut := range []int{snapHeaderLen, snapHeaderLen + 4, dirEnd, dirEnd + 4} {
		f.Add(valid[:cut], false)
	}
	for i := 0; i < nsec; i++ {
		e := valid[snapHeaderLen+4+hierDirEntryLen*i:]
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
	typed := func(t *testing.T, err error) {
		if !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("untyped decode error: %v", err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, resealed bool) {
		if resealed {
			data = reseal(data)
		}
		h, err := parseHierSnapshot(data, g)
		if err != nil {
			typed(t, err)
			return
		}
		h.finish(HierOptions{})
		verr := h.EnsureValid()
		if verr != nil {
			typed(t, verr)
		}
		exact := verr != nil || !resealed
		n := g.NumEdges()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				src, dst := roadnet.EdgeID(a), roadnet.EdgeID(b)
				d, e, p := h.Dist(src, dst), h.SPEnd(src, dst), h.Path(src, dst)
				if !exact {
					continue
				}
				if want := tab.Dist(src, dst); math.Float64bits(d) != math.Float64bits(want) {
					t.Fatalf("Dist(%d,%d) = %v, table %v", a, b, d, want)
				}
				if want := tab.SPEnd(src, dst); e != want {
					t.Fatalf("SPEnd(%d,%d) = %d, table %d", a, b, e, want)
				}
				if want := tab.Path(src, dst); !slices.Equal(p, want) {
					t.Fatalf("Path(%d,%d) = %v, table %v", a, b, p, want)
				}
			}
		}
	})
}
