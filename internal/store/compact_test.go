package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"press/internal/core"
)

func TestCompactDropsSupersededRecords(t *testing.T) {
	dir := t.TempDir()
	src, err := CreateSharded(filepath.Join(dir, "src"), 4)
	if err != nil {
		t.Fatal(err)
	}
	// 30 ids; every third id appended three times (the later versions
	// supersede), the rest once.
	appends := 0
	for id := uint64(0); id < 30; id++ {
		versions := 1
		if id%3 == 0 {
			versions = 3
		}
		for v := 0; v < versions; v++ {
			if err := src.Append(id, sample(int(id)*10+v)); err != nil {
				t.Fatal(err)
			}
			appends++
		}
	}
	// The byte-identity baseline: what Get serves per id before compaction.
	want := map[uint64][]byte{}
	for id := uint64(0); id < 30; id++ {
		ct, err := src.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = ct.Marshal()
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	kept, dropped, err := Compact(filepath.Join(dir, "src"), filepath.Join(dir, "dst"))
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if kept != 30 {
		t.Fatalf("kept = %d want 30", kept)
	}
	if dropped != appends-30 {
		t.Fatalf("dropped = %d want %d", dropped, appends-30)
	}

	dst, err := OpenSharded(filepath.Join(dir, "dst"))
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if dst.Shards() != 4 {
		t.Fatalf("Shards = %d want 4", dst.Shards())
	}
	if dst.Len() != 30 {
		t.Fatalf("Len = %d want 30 (duplicates must be gone)", dst.Len())
	}
	for id, blob := range want {
		ct, err := dst.Get(id)
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		if !bytes.Equal(ct.Marshal(), blob) {
			t.Fatalf("id %d: survivor bytes differ after compaction", id)
		}
	}
	// Shard placement is preserved: every id sits in ShardOf(id, 4).
	for shard := 0; shard < dst.Shards(); shard++ {
		err := dst.ScanShard(shard, func(id uint64, _ *core.Compressed) error {
			if ShardOf(id, 4) != shard {
				t.Fatalf("id %d landed in shard %d, want %d", id, shard, ShardOf(id, 4))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompactNoDuplicatesIsIdentity(t *testing.T) {
	dir := t.TempDir()
	src, err := CreateSharded(filepath.Join(dir, "src"), 2)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 12; id++ {
		if err := src.Append(id, sample(int(id))); err != nil {
			t.Fatal(err)
		}
	}
	srcSize := src.SizeBytes()
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	kept, dropped, err := Compact(filepath.Join(dir, "src"), filepath.Join(dir, "dst"))
	if err != nil {
		t.Fatal(err)
	}
	if kept != 12 || dropped != 0 {
		t.Fatalf("kept, dropped = %d, %d want 12, 0", kept, dropped)
	}
	dst, err := OpenSharded(filepath.Join(dir, "dst"))
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if dst.SizeBytes() != srcSize {
		t.Fatalf("dst size = %d want %d (no duplicates, so byte-for-byte identical layout)", dst.SizeBytes(), srcSize)
	}
}

// Compact reads only store directories: a v1 single-file source is refused
// with ErrBadLayout before any destination is created.
func TestCompactLegacySource(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "fleet.prss")
	if err := os.WriteFile(src, legacyImage(1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Compact(src, filepath.Join(dir, "dst")); !errors.Is(err, ErrBadLayout) {
		t.Fatalf("err = %v want ErrBadLayout", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "dst")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("destination created for a refused source (%v)", err)
	}
}
