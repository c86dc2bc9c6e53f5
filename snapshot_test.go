package press

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"press/internal/core"
)

// TestSnapshotSystemEquivalence is the acceptance property for the mapped
// boot: compression output (batch and online) is byte-identical and query
// answers are identical between a system over a memory-mapped snapshot and
// one over the all-pairs table.
func TestSnapshotSystemEquivalence(t *testing.T) {
	ds, ref, _, mapped := spFixture(t)
	if !mapped.SPStats().Mapped {
		t.Fatal("snapshot system does not report a mapped SP source")
	}
	assertSameAnswers(t, ds, ref, mapped)

	// Online path over the mapped compressor vs batch over the table.
	for i, tr := range ds.Truth {
		oc, err := core.NewOnlineCompressor(mapped.compressor)
		if err != nil {
			t.Fatal(err)
		}
		err = tr.Replay(
			func(e EdgeID) error { oc.PushEdge(e); return nil },
			func(p TemporalEntry) error { oc.PushSample(p); return nil },
		)
		if err != nil {
			t.Fatal(err)
		}
		ctOnline, err := oc.Flush()
		if err != nil {
			t.Fatal(err)
		}
		ctBatch, err := ref.Compress(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ctOnline.Marshal(), ctBatch.Marshal()) {
			t.Fatalf("trajectory %d: online-over-snapshot bytes differ from batch-over-table", i)
		}
	}
	if stats := mapped.SPStats(); stats.MappedBytes == 0 {
		t.Fatal("snapshot system reports no mapped bytes")
	}
}

// TestConfigSPSnapshotPathCache exercises the cache semantics: first boot
// builds the hierarchy and writes the snapshot, second boot maps it with
// byte-identical output, and a corrupt snapshot or a leftover file in the
// retired all-pairs format is a cache miss that regenerates. The strict
// NewSystemFromSnapshot boot maps the same file.
func TestConfigSPSnapshotPathCache(t *testing.T) {
	opt := DefaultDatasetOptions(12)
	opt.City.Rows, opt.City.Cols = 5, 5
	ds, err := GenerateDataset(opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TSND, cfg.NSTD = 50, 30
	cfg.SPSnapshotPath = filepath.Join(t.TempDir(), "sp.snap")
	boot := func(wantMapped bool) *System {
		t.Helper()
		sys, err := NewSystem(ds.Graph, ds.Trips[:6], cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		if s := sys.SPStats(); s.Mapped != wantMapped || s.Kind != "hier" {
			t.Fatalf("boot stats = %+v; want kind hier, mapped %v", s, wantMapped)
		}
		return sys
	}

	first := boot(false)
	if _, err := os.Stat(cfg.SPSnapshotPath); err != nil {
		t.Fatalf("first boot did not write the snapshot: %v", err)
	}
	second := boot(true)
	if second.SPStats().MappedBytes == 0 {
		t.Fatal("second boot maps no bytes")
	}
	for i, raw := range ds.Raws[:6] {
		ctA, errA := first.CompressGPS(raw)
		ctB, errB := second.CompressGPS(raw)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("raw %d: error mismatch", i)
		}
		if errA == nil && !bytes.Equal(ctA.Marshal(), ctB.Marshal()) {
			t.Fatalf("raw %d: bytes differ across boots", i)
		}
	}

	// A corrupted payload is a cache miss, not a failure: NewSystem
	// revalidates eagerly, rebuilds and rewrites instead of serving degraded.
	blob, err := os.ReadFile(cfg.SPSnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xFF
	if err := os.WriteFile(cfg.SPSnapshotPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	boot(false)
	boot(true)

	// So is a leftover snapshot of the retired version-1 all-pairs layout.
	v1 := make([]byte, 64)
	copy(v1, "PRSP")
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	if err := os.WriteFile(cfg.SPSnapshotPath, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	boot(false)

	strict, err := NewSystemFromSnapshot(ds.Graph, ds.Trips[:6], cfg.SPSnapshotPath, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()
	if s := strict.SPStats(); !s.Mapped || s.Kind != "hier" {
		t.Fatalf("strict boot stats = %+v; want mapped hier", s)
	}
}

// TestSPSnapshotWorldReadable pins the sharing contract: the snapshot file
// must be readable by other processes (0644 like the store files), not
// locked to the writing uid by CreateTemp's 0600.
func TestSPSnapshotWorldReadable(t *testing.T) {
	_, _, heap, _ := spFixture(t)
	path := filepath.Join(t.TempDir(), "perm.snap")
	if err := heap.SaveSPSnapshot(path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("snapshot mode = %o want 644", fi.Mode().Perm())
	}
}

// TestSPSnapshotPathFailsFast pins that open failures other than a cache
// miss (here: the path is a directory, which cannot be mapped) surface as
// construction errors instead of triggering a silent rebuild.
func TestSPSnapshotPathFailsFast(t *testing.T) {
	opt := DefaultDatasetOptions(8)
	opt.City.Rows, opt.City.Cols = 5, 5
	ds, err := GenerateDataset(opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SPSnapshotPath = t.TempDir() // a directory, not a snapshot file
	if _, err := NewSystem(ds.Graph, ds.Trips[:4], cfg); err == nil {
		t.Fatal("NewSystem over an unmappable snapshot path succeeded")
	}
}

// TestSaveSPSnapshotOnMappedSystem pins the error path: a system already
// serving from a snapshot has nothing new to save.
func TestSaveSPSnapshotOnMappedSystem(t *testing.T) {
	_, _, _, mapped := spFixture(t)
	if err := mapped.SaveSPSnapshot(filepath.Join(t.TempDir(), "again.snap")); err == nil {
		t.Fatal("SaveSPSnapshot on a mapped system succeeded")
	}
}
