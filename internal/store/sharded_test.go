package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"press/internal/core"
	"press/internal/traj"
)

func sample(i int) *core.Compressed {
	return &core.Compressed{
		Spatial: &core.SpatialCode{Bits: []byte{byte(i), byte(i + 1)}, NBits: 13},
		Temporal: traj.Temporal{
			{D: 0, T: float64(i)},
			{D: float64(100 * i), T: float64(i + 60)},
		},
	}
}

func TestShardedCreateAppendGet(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet")
	st, err := CreateSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Shards() != 4 {
		t.Fatalf("Shards = %d", st.Shards())
	}
	for i := 0; i < 40; i++ {
		if err := st.Append(uint64(i), sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != 40 {
		t.Fatalf("Len = %d", st.Len())
	}
	perShard := 0
	for i := 0; i < st.Shards(); i++ {
		perShard += st.ShardLen(i)
	}
	if perShard != 40 {
		t.Fatalf("shard lens sum to %d", perShard)
	}
	for i := 0; i < 40; i++ {
		ct, err := st.Get(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ct.Marshal(), sample(i).Marshal()) {
			t.Fatalf("record %d corrupted", i)
		}
	}
	if _, err := st.Get(999); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id: err = %v want ErrNotFound", err)
	}
}

func TestShardedReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet")
	st, err := CreateSharded(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 17; i++ {
		if err := st.Append(uint64(i), sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 17 || st2.Shards() != 3 {
		t.Fatalf("reopened Len=%d Shards=%d", st2.Len(), st2.Shards())
	}
	// Appends continue after reopen, and land on the same shard as before.
	if err := st2.Append(99, sample(99)); err != nil {
		t.Fatal(err)
	}
	ct, err := st2.Get(99)
	if err != nil || ct.Spatial.Bits[0] != 99 {
		t.Fatalf("post-reopen append broken: %v", err)
	}
	if got := st2.ShardLen(ShardOf(99, 3)); got == 0 {
		t.Error("append did not land on its ShardOf shard")
	}
}

func TestShardedScanOrderAndSnapshot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet")
	st, err := CreateSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Expected scan order: shards ascending, append order within a shard.
	var want [][]uint64 = make([][]uint64, 4)
	for i := 0; i < 30; i++ {
		id := uint64(i * 7)
		if err := st.Append(id, sample(i)); err != nil {
			t.Fatal(err)
		}
		want[ShardOf(id, 4)] = append(want[ShardOf(id, 4)], id)
	}
	var flat []uint64
	for _, w := range want {
		flat = append(flat, w...)
	}
	var got []uint64
	err = st.Scan(func(id uint64, ct *core.Compressed) error {
		got = append(got, id)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(flat) {
		t.Fatalf("scanned %d of %d", len(got), len(flat))
	}
	for i := range got {
		if got[i] != flat[i] {
			t.Fatalf("scan order: got[%d]=%d want %d", i, got[i], flat[i])
		}
	}
	// Callback error aborts and propagates.
	boom := errors.New("boom")
	if err := st.Scan(func(uint64, *core.Compressed) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("Scan error = %v want boom", err)
	}
}

func TestShardedDuplicateIDLastWins(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet")
	st, err := CreateSharded(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(5, sample(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(5, sample(2)); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d (both records kept)", st.Len())
	}
	ct, err := st.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ct.Marshal(), sample(2).Marshal()) {
		t.Error("Get did not return the latest record for a duplicate id")
	}
}

func TestShardedClosedOps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet")
	st, err := CreateSharded(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := st.Append(0, sample(0)); !errors.Is(err, ErrClosed) {
		t.Error("Append after close accepted")
	}
	if _, err := st.Get(0); !errors.Is(err, ErrClosed) {
		t.Error("Get after close accepted")
	}
	if err := st.Scan(func(uint64, *core.Compressed) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Error("Scan after close accepted")
	}
	if err := st.Sync(); !errors.Is(err, ErrClosed) {
		t.Error("Sync after close accepted")
	}
	if err := st.Close(); err != nil {
		t.Error("double Close should be nil")
	}
}

func TestShardOfDeterministicAndInRange(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 8, 64} {
		counts := make([]int, shards)
		for id := uint64(0); id < 10000; id++ {
			s := ShardOf(id, shards)
			if s != ShardOf(id, shards) {
				t.Fatalf("ShardOf(%d,%d) not deterministic", id, shards)
			}
			if s < 0 || s >= shards {
				t.Fatalf("ShardOf(%d,%d) = %d out of range", id, shards, s)
			}
			counts[s]++
		}
		// Sequential ids must spread: every shard within [½, 2]x fair share.
		fair := 10000 / shards
		for s, c := range counts {
			if c < fair/2 || c > 2*fair {
				t.Fatalf("shards=%d: shard %d holds %d of 10000 (fair %d)", shards, s, c, fair)
			}
		}
	}
}

// Recreating a store with fewer shards at the same path must clear the old
// segment files; stale higher-numbered shards would poison the next Open
// with ErrBadLayout.
func TestCreateShardedClearsStaleShards(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet")
	big, err := CreateSharded(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	big.Close()
	small, err := CreateSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.Append(1, sample(1)); err != nil {
		t.Fatal(err)
	}
	small.Close()
	st, err := OpenSharded(dir)
	if err != nil {
		t.Fatalf("reopen after shrink: %v", err)
	}
	defer st.Close()
	if st.Shards() != 4 || st.Len() != 1 {
		t.Fatalf("Shards=%d Len=%d", st.Shards(), st.Len())
	}
}

func TestCreateShardedValidation(t *testing.T) {
	dir := t.TempDir()
	st, err := CreateSharded(filepath.Join(dir, "one"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards() != 1 {
		t.Errorf("shards<=0 should clamp to 1, got %d", st.Shards())
	}
	st.Close()
	if _, err := CreateSharded(filepath.Join(dir, "huge"), MaxShards+1); err == nil {
		t.Error("absurd shard count accepted")
	}
}

func TestShardedSizeBytes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet")
	st, err := CreateSharded(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.SizeBytes() != 2*8 {
		t.Fatalf("empty size = %d", st.SizeBytes())
	}
	ct := sample(1)
	if err := st.Append(1, ct); err != nil {
		t.Fatal(err)
	}
	want := int64(2*8 + v3RecHdr + ct.SizeBytes())
	if st.SizeBytes() != want {
		t.Fatalf("size = %d want %d", st.SizeBytes(), want)
	}
}

func TestOpenShardedMissing(t *testing.T) {
	if _, err := OpenSharded(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing store accepted")
	}
	dir := filepath.Join(t.TempDir(), "empty")
	os.MkdirAll(dir, 0o755)
	if _, err := OpenSharded(dir); err == nil {
		t.Error("directory without manifest accepted")
	}
}

// Records with and without a summary interleave on one shard, and a replace
// may add or drop the summary: Get and StatRecord follow the latest record.
func TestCreateAppendGet(t *testing.T) {
	st, err := CreateSharded(filepath.Join(t.TempDir(), "fleet"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, step := range []struct {
		id uint64
		ct *core.Compressed
	}{{1, summarized(1)}, {2, sample(2)}, {1, sample(10)}, {2, summarized(20)}} {
		if err := st.Append(step.id, step.ct); err != nil {
			t.Fatal(err)
		}
	}
	for id, want := range map[uint64]*core.Compressed{1: sample(10), 2: summarized(20)} {
		ct, err := st.Get(id)
		if err != nil || !bytes.Equal(ct.Marshal(), want.Marshal()) || !reflect.DeepEqual(ct.Summary, want.Summary) {
			t.Fatalf("Get(%d) = %+v, %v; want the latest record", id, ct, err)
		}
		if _, sum, err := st.StatRecord(id); err != nil || !reflect.DeepEqual(sum, want.Summary) {
			t.Fatalf("StatRecord(%d) summary = %+v, %v want %+v", id, sum, err, want.Summary)
		}
	}
}

// Reopening stamps every live record with a distinct nonzero revision no
// greater than the store generation, and the next append advances past it.
func TestReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet")
	st, err := CreateSharded(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := st.Append(uint64(i%6), sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Delete(4); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := st.Generation()
	revs := map[uint64]bool{}
	err = st.ScanMeta(func(id, rev uint64, _ *core.BoundingSummary) error {
		if rev == 0 || rev > g || revs[rev] {
			t.Fatalf("id %d: revision %d (generation %d, seen %v)", id, rev, g, revs[rev])
		}
		revs[rev] = true
		return nil
	})
	if err != nil || len(revs) != 5 {
		t.Fatalf("ScanMeta visited %d live ids want 5 (%v)", len(revs), err)
	}
	if err := st.Append(7, sample(7)); err != nil {
		t.Fatal(err)
	}
	if rev, _, err := st.StatRecord(7); err != nil || rev <= g || st.Generation() <= g {
		t.Fatalf("post-reopen append: rev %d generation %d, before %d (%v)", rev, st.Generation(), g, err)
	}
}

// ScanMeta visits each live id exactly once with its latest record, while
// IDs and Scan list every visible row in the same order: duplicates
// included, deleted ids absent.
func TestEach(t *testing.T) {
	st, err := CreateSharded(filepath.Join(t.TempDir(), "fleet"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 8; i++ {
		if err := st.Append(uint64(i%4), summarized(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Delete(2); err != nil {
		t.Fatal(err)
	}
	var scanned []uint64
	if err := st.Scan(func(id uint64, _ *core.Compressed) error {
		scanned = append(scanned, id)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(scanned) != 6 || !reflect.DeepEqual(scanned, st.IDs()) {
		t.Fatalf("Scan ids %v, IDs %v; want the same 6 rows", scanned, st.IDs())
	}
	meta := map[uint64]core.BoundingSummary{}
	if err := st.ScanMeta(func(id, _ uint64, sum *core.BoundingSummary) error {
		if _, dup := meta[id]; dup {
			t.Fatalf("ScanMeta visited id %d twice", id)
		}
		meta[id] = *sum
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(meta) != 3 {
		t.Fatalf("ScanMeta visited %d ids want 3", len(meta))
	}
	for id, sum := range meta {
		if sum != *summarized(int(id) + 4).Summary {
			t.Fatalf("ScanMeta(%d) = %+v, not the latest record's summary", id, sum)
		}
	}
}

// A callback error stops a scan after that one record, and ScanShard
// rejects a shard index outside the store.
func TestScan(t *testing.T) {
	st, err := CreateSharded(filepath.Join(t.TempDir(), "fleet"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 10; i++ {
		if err := st.Append(uint64(i), sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	calls := 0
	err = st.Scan(func(uint64, *core.Compressed) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("error exit: err=%v calls=%d", err, calls)
	}
	for _, i := range []int{-1, 2} {
		if err := st.ScanShard(i, func(uint64, *core.Compressed) error { return nil }); err == nil {
			t.Errorf("ScanShard(%d) accepted", i)
		}
	}
}

// A missing path and a directory without a MANIFEST both report
// os.ErrNotExist: the signal a caller uses to create a fresh store there.
func TestOpenErrors(t *testing.T) {
	empty := t.TempDir()
	for _, path := range []string{filepath.Join(empty, "nope"), empty} {
		if _, err := OpenSharded(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("OpenSharded(%s) = %v want os.ErrNotExist", path, err)
		}
	}
}

// Every path not covered by TestShardedClosedOps also reports ErrClosed.
func TestClosedOps(t *testing.T) {
	st, err := CreateSharded(filepath.Join(t.TempDir(), "fleet"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(1, sample(1)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	_, _, getErr := st.GetRecord(1)
	_, _, statErr := st.StatRecord(1)
	for name, err := range map[string]error{
		"Delete":     st.Delete(1),
		"GetRecord":  getErr,
		"StatRecord": statErr,
		"ScanShard":  st.ScanShard(0, func(uint64, *core.Compressed) error { return nil }),
		"ScanMeta":   st.ScanMeta(func(uint64, uint64, *core.BoundingSummary) error { return nil }),
	} {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("%s after close: err = %v want ErrClosed", name, err)
		}
	}
}

// SizeBytes counts a summarized record's 48-byte summary slot and a
// tombstone's bare header.
func TestSizeBytes(t *testing.T) {
	st, err := CreateSharded(filepath.Join(t.TempDir(), "fleet"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ct := summarized(1)
	if err := st.Append(1, ct); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(1); err != nil {
		t.Fatal(err)
	}
	want := int64(8 + v3RecHdr + core.BoundingSummaryLen + ct.SizeBytes() + v3RecHdr)
	if st.SizeBytes() != want {
		t.Fatalf("size = %d want %d", st.SizeBytes(), want)
	}
}
