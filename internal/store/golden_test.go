package store

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"press/internal/core"
	"press/internal/geo"
	"press/internal/traj"
)

// goldenRecord is a fixed record independent of the other tests' helpers,
// so the golden digests below change only when the stored bytes do.
func goldenRecord(i int, withSummary bool) *core.Compressed {
	ct := &core.Compressed{
		Spatial:  &core.SpatialCode{Bits: []byte{byte(i), 0xA5, byte(3 * i)}, NBits: 21},
		Temporal: traj.Temporal{{D: 0, T: float64(10 * i)}, {D: float64(250 * i), T: float64(10*i + 90)}},
	}
	if withSummary {
		ct.Summary = &core.BoundingSummary{
			MBR: geo.MBR{MinX: float64(i), MinY: -float64(i), MaxX: float64(100 + i), MaxY: float64(50 + i)},
			T0:  float64(10 * i), T1: float64(10*i + 90),
		}
	}
	return ct
}

// The v3 on-disk bytes are pinned: a fixed 2-shard history (records with
// and without a summary, a replace and a tombstone) must produce exactly
// these shard files and MANIFEST. A failure here means the stored format
// changed; update the digests only as a deliberate format change.
func TestGoldenV3Bytes(t *testing.T) {
	want := map[string]string{
		manifestName: "7b8b1c88bbc296b1ebbcb86a76e6eb2a535974f12bee8df81bb9d55b8a82de49",
		shardName(0): "0caf852f4a3aa668236ba9d841d36f64d9c11a13e29990bddb41e6368e8322e0",
		shardName(1): "20dd08b6ea23a1f119de6f5157db10745255a27a532ed5b47bdd1efdbfdd6dde",
	}
	dir := filepath.Join(t.TempDir(), "fleet")
	st, err := CreateSharded(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		id      uint64
		rec     int
		summary bool
	}{
		{1, 1, true}, {2, 2, false}, {3, 3, true}, {4, 4, false}, {5, 5, true},
		{1, 11, false}, // replace id 1 without a summary
		{3, 13, true},  // replace id 3 with a new summary
	} {
		if err := st.Append(step.id, goldenRecord(step.rec, step.summary)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint64{2, 5} {
		if err := st.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < st.Shards(); i++ {
		if st.ShardLen(i) == 0 {
			t.Fatalf("shard %d holds no live record; the history must cover both shards", i)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for name, digest := range want {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != digest {
			t.Errorf("%s: sha256 %s want %s (%d bytes)", name, got, digest, len(b))
		}
	}
}
