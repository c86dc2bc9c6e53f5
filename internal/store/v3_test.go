package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"press/internal/core"
	"press/internal/geo"
)

// summarized returns sample(i) with a distinctive BoundingSummary attached.
func summarized(i int) *core.Compressed {
	ct := sample(i)
	ct.Summary = &core.BoundingSummary{
		MBR: geo.MBR{MinX: float64(i), MinY: float64(i + 1), MaxX: float64(i + 2), MaxY: float64(i + 3)},
		T0:  float64(i), T1: float64(i + 60),
	}
	return ct
}

// Summaries persist with the record and come back through Get, StatRecord,
// Scan and ScanMeta — including across close/reopen.
func TestSummaryPersistRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet")
	st, err := CreateSharded(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		if err := st.Append(uint64(i), summarized(i)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(st *ShardedStore, stage string) {
		t.Helper()
		for i := 0; i < n; i++ {
			want := *summarized(i).Summary
			ct, err := st.Get(uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			if ct.Summary == nil || *ct.Summary != want {
				t.Fatalf("%s: Get(%d).Summary = %+v want %+v", stage, i, ct.Summary, want)
			}
			_, sum, err := st.StatRecord(uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			if sum == nil || *sum != want {
				t.Fatalf("%s: StatRecord(%d) summary = %+v", stage, i, sum)
			}
		}
		seen := 0
		err := st.ScanMeta(func(id, rev uint64, sum *core.BoundingSummary) error {
			if sum == nil || *sum != *summarized(int(id)).Summary {
				t.Fatalf("%s: ScanMeta(%d) summary = %+v", stage, id, sum)
			}
			if rev == 0 {
				t.Fatalf("%s: ScanMeta(%d) zero rev", stage, id)
			}
			seen++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen != n {
			t.Fatalf("%s: ScanMeta visited %d want %d", stage, seen, n)
		}
		err = st.Scan(func(id uint64, ct *core.Compressed) error {
			if ct.Summary == nil || *ct.Summary != *summarized(int(id)).Summary {
				t.Fatalf("%s: Scan(%d) summary = %+v", stage, id, ct.Summary)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	check(st, "fresh")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check(st, "reopened")
}

// A record appended without a summary reads back with a nil summary,
// interleaved freely with summarized neighbors.
func TestSummaryAbsentIsNil(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet")
	st, err := CreateSharded(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(1, sample(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(2, summarized(2)); err != nil {
		t.Fatal(err)
	}
	if ct, err := st.Get(1); err != nil || ct.Summary != nil {
		t.Fatalf("Get(1) = %+v, %v; want nil summary", ct.Summary, err)
	}
	if ct, err := st.Get(2); err != nil || ct.Summary == nil {
		t.Fatalf("Get(2) summary nil (err %v)", err)
	}
}

func TestDeleteTombstone(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet")
	st, err := CreateSharded(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Append(uint64(i), summarized(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A superseded duplicate of the victim: the tombstone must hide it too.
	if err := st.Append(3, summarized(30)); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 6 {
		t.Fatalf("Len = %d want 6", st.Len())
	}
	if err := st.Delete(3); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(3) after delete: %v", err)
	}
	if _, _, err := st.StatRecord(3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("StatRecord(3) after delete: %v", err)
	}
	if st.Len() != 4 {
		t.Fatalf("Len after delete = %d want 4", st.Len())
	}
	for _, id := range st.IDs() {
		if id == 3 {
			t.Fatal("IDs still lists deleted id")
		}
	}
	// Deleting again: not found.
	if err := st.Delete(3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	// Survives reopen.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Get(3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(3) after reopen: %v", err)
	}
	if st.Len() != 4 {
		t.Fatalf("Len after reopen = %d want 4", st.Len())
	}
	// Re-append after delete: fresh insert; pre-delete rows stay hidden.
	if err := st.Append(3, summarized(300)); err != nil {
		t.Fatal(err)
	}
	ct, err := st.Get(3)
	if err != nil || *ct.Summary != *summarized(300).Summary {
		t.Fatalf("re-appended Get(3) = %+v, %v", ct.Summary, err)
	}
	if st.Len() != 5 {
		t.Fatalf("Len after re-append = %d want 5", st.Len())
	}
}

// The generation counter must advance on every mutation — in particular
// across a count-preserving delete+insert, which is exactly the scenario
// the old Len-based index invalidation missed.
func TestGenerationMonotonic(t *testing.T) {
	st, err := CreateSharded(filepath.Join(t.TempDir(), "fleet"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g0 := st.Generation()
	for i := 0; i < 4; i++ {
		if err := st.Append(uint64(i), summarized(i)); err != nil {
			t.Fatal(err)
		}
		if g := st.Generation(); g <= g0 {
			t.Fatalf("append %d did not advance generation (%d -> %d)", i, g0, g)
		} else {
			g0 = g
		}
	}
	lenBefore, genBefore := st.Len(), st.Generation()
	if err := st.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(9, summarized(9)); err != nil {
		t.Fatal(err)
	}
	if st.Len() != lenBefore {
		t.Fatalf("delete+insert changed Len: %d -> %d", lenBefore, st.Len())
	}
	if st.Generation() == genBefore {
		t.Fatal("count-preserving delete+insert left generation unchanged")
	}
}

// Revisions identify the exact stored record: a re-append of the same id
// yields a different revision.
func TestRevisionChangesOnReplace(t *testing.T) {
	st, err := CreateSharded(filepath.Join(t.TempDir(), "fleet"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(5, summarized(5)); err != nil {
		t.Fatal(err)
	}
	_, rev1, err := st.GetRecord(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(5, summarized(50)); err != nil {
		t.Fatal(err)
	}
	_, rev2, err := st.GetRecord(5)
	if err != nil {
		t.Fatal(err)
	}
	if rev1 == rev2 {
		t.Fatalf("replace kept revision %d", rev1)
	}
	if rev, _, err := st.StatRecord(5); err != nil || rev != rev2 {
		t.Fatalf("StatRecord rev = %d, %v; want %d", rev, err, rev2)
	}
}

// Compact carries summaries to the destination and drops deleted records
// along with their tombstones.
func TestCompactCarriesSummariesAndDropsDeleted(t *testing.T) {
	srcDir := filepath.Join(t.TempDir(), "src")
	st, err := CreateSharded(srcDir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := st.Append(uint64(i), summarized(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Append(1, summarized(10)); err != nil { // superseded dup
		t.Fatal(err)
	}
	if err := st.Delete(4); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	dstDir := filepath.Join(t.TempDir(), "dst")
	kept, dropped, err := Compact(srcDir, dstDir)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 5 || dropped != 1 {
		t.Fatalf("kept=%d dropped=%d want 5/1", kept, dropped)
	}
	dst, err := OpenSharded(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if _, err := dst.Get(4); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted id survived compact: %v", err)
	}
	ct, err := dst.Get(1)
	if err != nil || ct.Summary == nil || *ct.Summary != *summarized(10).Summary {
		t.Fatalf("Get(1) = %+v, %v (want latest dup's summary)", ct.Summary, err)
	}
	for _, id := range []uint64{0, 2, 3, 5} {
		ct, err := dst.Get(id)
		if err != nil || ct.Summary == nil || *ct.Summary != *summarized(int(id)).Summary {
			t.Fatalf("Get(%d) = %+v, %v", id, ct.Summary, err)
		}
	}
}

// A crash mid-tombstone must truncate the partial tombstone away and leave
// the record it was deleting fully served again.
func TestCrashTruncationMidTombstone(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet")
	st, err := CreateSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(1, summarized(1)); err != nil {
		t.Fatal(err)
	}
	tailStart := st.shards[0].wpos
	if err := st.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(filepath.Join(dir, shardName(0)))
	if err != nil {
		t.Fatal(err)
	}
	for cut := tailStart; cut < int64(len(img)); cut++ {
		cutDir := writeShardedDir(t, img[:cut])
		st, err := OpenSharded(cutDir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if ct, err := st.Get(1); err != nil || ct.Summary == nil {
			t.Fatalf("cut %d: record not resurrected: %+v, %v", cut, ct, err)
		}
		if st.Len() != 1 {
			t.Fatalf("cut %d: Len = %d", cut, st.Len())
		}
		st.Close()
	}
	// And the uncut image keeps the delete.
	st2, err := OpenSharded(writeShardedDir(t, img))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.Get(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("full image lost the tombstone: %v", err)
	}
}
