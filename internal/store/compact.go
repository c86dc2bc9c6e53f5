package store

import "fmt"

// Compact rewrites the sharded store at srcDir into a new sharded store at
// dstDir, keeping only the latest record per trajectory id — the record Get
// would serve — and dropping every superseded duplicate. The shard count is
// preserved, so every survivor lands in the same shard index it occupied in
// the source (ShardOf is a pure function of id and shard count) and keeps
// its relative append order; payload bytes are copied verbatim.
//
// Each survivor's persisted BoundingSummary is copied as stored: a record
// kept without a summary stays without one (Compact never decodes a
// payload to synthesize one). Deleted records and their tombstones are
// dropped entirely. Compact returns how many records were kept and how
// many duplicates were dropped. The destination is fsynced before return.
func Compact(srcDir, dstDir string) (kept, dropped int, err error) {
	src, err := OpenSharded(srcDir)
	if err != nil {
		return 0, 0, err
	}
	defer src.Close()
	dst, err := CreateSharded(dstDir, src.Shards())
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
	}()
	for i, sh := range src.shards {
		snap := sh.snapshot()
		// Latest slot per id within this shard (ids never cross shards).
		latest := make(map[uint64]int, len(snap.ids))
		for j, id := range snap.ids {
			latest[id] = j
		}
		for j, id := range snap.ids {
			if latest[id] != j {
				dropped++
				continue
			}
			blob := make([]byte, snap.sizes[j])
			if _, rerr := sh.f.ReadAt(blob, snap.offsets[j]); rerr != nil {
				return kept, dropped, fmt.Errorf("store: compact: shard %d: %w", i, rerr)
			}
			if aerr := dst.appendRaw(id, blob, snap.sums[j]); aerr != nil {
				return kept, dropped, fmt.Errorf("store: compact: shard %d: %w", i, aerr)
			}
			kept++
		}
	}
	if serr := dst.Sync(); serr != nil {
		return kept, dropped, serr
	}
	return kept, dropped, nil
}
