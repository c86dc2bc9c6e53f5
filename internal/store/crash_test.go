package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// buildShardImage creates a 1-shard store with n records, closes it, and
// returns the shard file's bytes plus the offset where the last record
// (header included) begins.
func buildShardImage(t *testing.T, n int) (img []byte, tailStart int64) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "fleet")
	st, err := CreateSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := st.Append(uint64(i), sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	sh := st.shards[0]
	tailStart = sh.offsets[n-1] - v3RecHdr // sample() records carry no summary
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	img, err = os.ReadFile(filepath.Join(dir, shardName(0)))
	if err != nil {
		t.Fatal(err)
	}
	return img, tailStart
}

// writeShardedDir materializes a 1-shard store directory from a shard image.
func writeShardedDir(t *testing.T, shard []byte) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "fleet")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var man [16]byte
	copy(man[:4], manifestMagic[:])
	binary.LittleEndian.PutUint32(man[4:8], manifestVersion)
	binary.LittleEndian.PutUint32(man[8:12], shardedVersion)
	binary.LittleEndian.PutUint32(man[12:16], 1)
	if err := os.WriteFile(filepath.Join(dir, manifestName), man[:], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, shardName(0)), shard, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// A crash can cut the tail record at ANY byte boundary — inside the id, the
// length prefix, the CRC, or the payload. Open must drop exactly the
// partial tail: every earlier record survives, the file is truncated back
// to the tail start, and appends resume cleanly.
func TestCrashTruncationEveryByteBoundary(t *testing.T) {
	const n = 4
	img, tailStart := buildShardImage(t, n)
	for cut := tailStart; cut < int64(len(img)); cut++ {
		dir := writeShardedDir(t, img[:cut])
		st, err := OpenSharded(dir)
		if err != nil {
			t.Fatalf("cut %d/%d: Open: %v", cut, len(img), err)
		}
		if got := st.Len(); got != n-1 {
			t.Fatalf("cut %d: Len = %d want %d (exactly the partial tail dropped)", cut, got, n-1)
		}
		for i := 0; i < n-1; i++ {
			if _, err := st.Get(uint64(i)); err != nil {
				t.Fatalf("cut %d: surviving record %d unreadable: %v", cut, i, err)
			}
		}
		// The shard must be truncated so a resumed append is clean.
		if err := st.Append(uint64(n-1), sample(n-1)); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		st.Close()
		st2, err := OpenSharded(dir)
		if err != nil {
			t.Fatalf("cut %d: reopen after repair: %v", cut, err)
		}
		if st2.Len() != n {
			t.Fatalf("cut %d: Len after repair+append = %d want %d", cut, st2.Len(), n)
		}
		fi, err := os.Stat(filepath.Join(dir, shardName(0)))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > int64(len(img)) {
			t.Fatalf("cut %d: file grew past pristine size: %d > %d (garbage not truncated)", cut, fi.Size(), len(img))
		}
		st2.Close()
	}
}

// An uncut image must open with nothing dropped (the boundary case the
// truncation loop above stops just short of).
func TestCrashFullImageLosesNothing(t *testing.T) {
	const n = 4
	img, _ := buildShardImage(t, n)
	st, err := OpenSharded(writeShardedDir(t, img))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != n {
		t.Fatalf("Len = %d want %d", st.Len(), n)
	}
}

// corruptShard applies fn to a pristine shard image and asserts OpenSharded
// fails with the wanted typed error — an error, never a panic.
func corruptShard(t *testing.T, name string, want error, fn func(img []byte) []byte) {
	t.Helper()
	img, _ := buildShardImage(t, 4)
	dir := writeShardedDir(t, fn(append([]byte(nil), img...)))
	_, err := OpenSharded(dir)
	if err == nil {
		t.Fatalf("%s: corruption accepted", name)
	}
	if !errors.Is(err, want) {
		t.Fatalf("%s: err = %v, want %v", name, err, want)
	}
}

func TestShardCorruptionTypedErrors(t *testing.T) {
	// Bad magic in the segment header.
	// A segment shorter than its 8-byte header.
	corruptShard(t, "segment shorter than 8 bytes", io.ErrUnexpectedEOF, func(img []byte) []byte {
		return img[:2]
	})
	corruptShard(t, "shard bad magic", ErrBadMagic, func(img []byte) []byte {
		copy(img[:4], "NOPE")
		return img
	})
	// Wrong segment format version.
	corruptShard(t, "shard bad version", ErrBadVersion, func(img []byte) []byte {
		binary.LittleEndian.PutUint32(img[4:8], 7)
		return img
	})
	// Mangled length prefix of an interior record, small: the scan reads
	// the wrong payload bytes and the CRC catches it. (v3 header layout:
	// id at +0, flags at +8, length at +12, crc at +16.)
	corruptShard(t, "interior length shrunk", ErrCorrupt, func(img []byte) []byte {
		binary.LittleEndian.PutUint32(img[8+12:8+16], 1)
		return img
	})
	// Mangled length prefix, absurd: rejected outright instead of silently
	// truncating every record after it.
	corruptShard(t, "interior length absurd", ErrCorrupt, func(img []byte) []byte {
		binary.LittleEndian.PutUint32(img[8+12:8+16], uint32(MaxRecordLen+1))
		return img
	})
	// Unknown flag bits: refused, not misparsed.
	corruptShard(t, "unknown record flags", ErrCorrupt, func(img []byte) []byte {
		binary.LittleEndian.PutUint32(img[8+8:8+12], 1<<7)
		return img
	})
	// A flipped payload bit in an interior record: CRC mismatch.
	corruptShard(t, "payload bit flip", ErrCorrupt, func(img []byte) []byte {
		img[8+v3RecHdr] ^= 0x40
		return img
	})
}

func TestManifestCorruptionTypedErrors(t *testing.T) {
	build := func(t *testing.T) string {
		dir := filepath.Join(t.TempDir(), "fleet")
		st, err := CreateSharded(dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := st.Append(uint64(i), sample(i)); err != nil {
				t.Fatal(err)
			}
		}
		st.Close()
		return dir
	}
	manPath := func(dir string) string { return filepath.Join(dir, manifestName) }

	t.Run("bad magic", func(t *testing.T) {
		dir := build(t)
		man, _ := os.ReadFile(manPath(dir))
		copy(man[:4], "XXXX")
		os.WriteFile(manPath(dir), man, 0o644)
		if _, err := OpenSharded(dir); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v want ErrBadMagic", err)
		}
	})
	t.Run("bad manifest version", func(t *testing.T) {
		dir := build(t)
		man, _ := os.ReadFile(manPath(dir))
		binary.LittleEndian.PutUint32(man[4:8], 9)
		os.WriteFile(manPath(dir), man, 0o644)
		if _, err := OpenSharded(dir); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("err = %v want ErrBadVersion", err)
		}
	})
	t.Run("bad format version", func(t *testing.T) {
		dir := build(t)
		man, _ := os.ReadFile(manPath(dir))
		binary.LittleEndian.PutUint32(man[8:12], 9)
		os.WriteFile(manPath(dir), man, 0o644)
		if _, err := OpenSharded(dir); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("err = %v want ErrBadVersion", err)
		}
	})
	t.Run("format 2 manifest", func(t *testing.T) {
		dir := build(t)
		man, _ := os.ReadFile(manPath(dir))
		binary.LittleEndian.PutUint32(man[8:12], 2)
		os.WriteFile(manPath(dir), man, 0o644)
		if _, err := OpenSharded(dir); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("err = %v want ErrBadVersion", err)
		}
	})
	t.Run("truncated manifest", func(t *testing.T) {
		dir := build(t)
		man, _ := os.ReadFile(manPath(dir))
		os.WriteFile(manPath(dir), man[:7], 0o644)
		if _, err := OpenSharded(dir); err == nil {
			t.Fatal("short manifest accepted")
		}
	})
	t.Run("missing shard file", func(t *testing.T) {
		dir := build(t)
		os.Remove(filepath.Join(dir, shardName(1)))
		if _, err := OpenSharded(dir); !errors.Is(err, ErrBadLayout) {
			t.Fatalf("err = %v want ErrBadLayout", err)
		}
	})
	t.Run("extra shard file", func(t *testing.T) {
		dir := build(t)
		os.WriteFile(filepath.Join(dir, shardName(2)), []byte("PRSS"), 0o644)
		if _, err := OpenSharded(dir); !errors.Is(err, ErrBadLayout) {
			t.Fatalf("err = %v want ErrBadLayout", err)
		}
	})
	t.Run("zero shard count", func(t *testing.T) {
		dir := build(t)
		man, _ := os.ReadFile(manPath(dir))
		binary.LittleEndian.PutUint32(man[12:16], 0)
		os.WriteFile(manPath(dir), man, 0o644)
		if _, err := OpenSharded(dir); !errors.Is(err, ErrBadLayout) {
			t.Fatalf("err = %v want ErrBadLayout", err)
		}
	})
}

// A torn append on one shard of a multi-shard store truncates only that
// shard's tail; the other shards are untouched and appends resume.
func TestCrashTailTruncated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet")
	st, err := CreateSharded(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := st.Append(uint64(i), sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	sizes := []int64{st.shards[0].wpos, st.shards[1].wpos}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A header promising a 200-byte payload, followed by 3 bytes of it.
	var torn [v3RecHdr + 3]byte
	binary.LittleEndian.PutUint64(torn[:8], 99)
	binary.LittleEndian.PutUint32(torn[12:16], 200)
	f, err := os.OpenFile(filepath.Join(dir, shardName(1)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	st, err = OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 8 {
		t.Fatalf("Len after crash = %d want 8", st.Len())
	}
	for i, want := range sizes {
		fi, err := os.Stat(filepath.Join(dir, shardName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != want {
			t.Fatalf("shard %d: %d bytes after recovery want %d", i, fi.Size(), want)
		}
	}
	if err := st.Append(99, sample(99)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(99); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// legacyImage returns a segment file of a retired format version holding
// sample(1): v1 records are uint32 length | payload, v2 records are
// uint64 id | uint32 length | uint32 crc | payload.
func legacyImage(version uint32) []byte {
	payload := sample(1).Marshal()
	img := binary.LittleEndian.AppendUint32([]byte("PRSS"), version)
	if version == 2 {
		img = binary.LittleEndian.AppendUint64(img, 1)
	}
	img = binary.LittleEndian.AppendUint32(img, uint32(len(payload)))
	if version == 2 {
		img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(payload))
	}
	return append(img, payload...)
}

// A v1 single-file store is not opened as a 1-shard store: the path is
// refused as not a store directory, and its bytes stay untouched.
func TestShardedLegacyDegenerateCase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.prss")
	img := legacyImage(1)
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded(path); !errors.Is(err, ErrBadLayout) {
		t.Fatalf("err = %v want ErrBadLayout", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, img) {
		t.Fatalf("refused file changed (%v)", err)
	}
}

// A v1 segment inside a store directory is a typed error too.
func TestV1CorruptionTypedErrors(t *testing.T) {
	if _, err := OpenSharded(writeShardedDir(t, legacyImage(1))); !errors.Is(err, ErrBadVersion) {
		t.Errorf("v1 segment: err = %v want ErrBadVersion", err)
	}
}

// A regular file at the store path is refused with ErrBadLayout ("not a
// store directory"), not a raw ENOTDIR from reading MANIFEST under it.
func TestOpenShardedLegacyCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.prss")
	os.WriteFile(path, []byte("NOPE0000"), 0o644)
	if _, err := OpenSharded(path); !errors.Is(err, ErrBadLayout) {
		t.Errorf("err = %v want ErrBadLayout", err)
	}
}

// A segment written in the retired v2 format is refused with ErrBadVersion
// and left byte-identical: opening never truncates what it cannot read.
// (A manifest declaring format 2 is refused in
// TestManifestCorruptionTypedErrors.)
func TestV2FormatCompat(t *testing.T) {
	img := legacyImage(2)
	dir := writeShardedDir(t, img)
	if _, err := OpenSharded(dir); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v want ErrBadVersion", err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, shardName(0))); err != nil || !bytes.Equal(got, img) {
		t.Fatalf("refused segment changed (%v)", err)
	}
}
