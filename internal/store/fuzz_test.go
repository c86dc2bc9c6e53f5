package store

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"press/internal/core"
	"press/internal/geo"
	"press/internal/traj"
)

// randCompressed derives one well-formed Compressed record from the rng.
// Field values are arbitrary (the store treats payloads as opaque bytes);
// temporal entries stay in float32 range so Marshal/Unmarshal is lossless.
func randCompressed(rng *rand.Rand) *core.Compressed {
	nbits := rng.Intn(256)
	bits := make([]byte, (nbits+7)/8)
	rng.Read(bits)
	temporal := make(traj.Temporal, rng.Intn(16))
	for i := range temporal {
		temporal[i].D = float64(float32(rng.NormFloat64() * 1e4))
		temporal[i].T = float64(float32(rng.Float64() * 1e5))
	}
	return &core.Compressed{
		Spatial:  &core.SpatialCode{Bits: bits, NBits: nbits},
		Temporal: temporal,
	}
}

// randSummary derives one BoundingSummary from the rng; float64 fields
// round-trip exactly through the 48-byte slot.
func randSummary(rng *rand.Rand) *core.BoundingSummary {
	x, y := rng.NormFloat64()*1e4, rng.NormFloat64()*1e4
	t0 := rng.Float64() * 1e5
	return &core.BoundingSummary{
		MBR: geo.MBR{MinX: x, MinY: y, MaxX: x + rng.Float64()*1e3, MaxY: y + rng.Float64()*1e3},
		T0:  t0, T1: t0 + rng.Float64()*1e4,
	}
}

// FuzzStoreRoundtrip drives the full record lifecycle from a fuzzer-chosen
// script over a random shard count. Each script byte is one step: append a
// fresh id (with or without a BoundingSummary), re-append an id already
// used (live or deleted), or Delete a live id. After Close + OpenSharded
// the store must match an in-test model: Get and StatRecord serve every
// live id's latest record and summary, deleted ids report ErrNotFound, and
// Len and each shard's ScanShard order equal the model's visible rows.
func FuzzStoreRoundtrip(f *testing.F) {
	f.Add(int64(1), uint8(1), []byte{0, 3, 1, 2})
	f.Add(int64(42), uint8(4), []byte("append, replace and delete across shards"))
	f.Add(int64(-7), uint8(8), []byte{})
	f.Add(int64(99), uint8(200), []byte{3, 0, 4, 2, 2, 1, 5, 2, 7, 1, 0, 2, 8})
	f.Fuzz(func(t *testing.T, seed int64, shardByte uint8, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		shards := int(shardByte)%8 + 1
		rng := rand.New(rand.NewSource(seed))

		type rec struct {
			id   uint64
			blob []byte
			sum  *core.BoundingSummary
		}
		rows := make([][]rec, shards) // visible rows per shard, in append order
		latest := map[uint64]rec{}    // what Get serves, per live id
		var used []uint64             // every id ever appended, in first-use order
		dir := filepath.Join(t.TempDir(), "fleet")
		st, err := CreateSharded(dir, shards)
		if err != nil {
			t.Fatal(err)
		}
		for step, b := range script {
			var live []uint64
			for _, id := range used {
				if _, ok := latest[id]; ok {
					live = append(live, id)
				}
			}
			switch {
			case b%3 == 2 && len(live) > 0: // delete a live id
				id := live[rng.Intn(len(live))]
				if err := st.Delete(id); err != nil {
					t.Fatalf("step %d: delete %d: %v", step, id, err)
				}
				s := ShardOf(id, shards)
				kept := rows[s][:0]
				for _, r := range rows[s] {
					if r.id != id {
						kept = append(kept, r)
					}
				}
				rows[s] = kept
				delete(latest, id)
			case b%3 != 2: // append a fresh id (0) or re-append a used one (1)
				id := rng.Uint64()
				if b%3 == 1 && len(used) > 0 {
					id = used[rng.Intn(len(used))]
				} else {
					used = append(used, id)
				}
				ct := randCompressed(rng)
				if b&4 != 0 {
					ct.Summary = randSummary(rng)
				}
				if err := st.Append(id, ct); err != nil {
					t.Fatalf("step %d: append %d: %v", step, id, err)
				}
				r := rec{id: id, blob: ct.Marshal(), sum: ct.Summary}
				s := ShardOf(id, shards)
				rows[s] = append(rows[s], r)
				latest[id] = r
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		st2, err := OpenSharded(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer st2.Close()
		total := 0
		for s := 0; s < shards; s++ {
			total += len(rows[s])
			var got []rec
			err := st2.ScanShard(s, func(id uint64, ct *core.Compressed) error {
				got = append(got, rec{id: id, blob: ct.Marshal(), sum: ct.Summary})
				return nil
			})
			if err != nil || len(got) != len(rows[s]) || (len(got) > 0 && !reflect.DeepEqual(got, rows[s])) {
				t.Fatalf("shard %d: scanned %d rows (%v), want the %d modeled rows in append order", s, len(got), err, len(rows[s]))
			}
		}
		if st2.Len() != total || st2.Shards() != shards {
			t.Fatalf("reopened Len=%d Shards=%d want %d/%d", st2.Len(), st2.Shards(), total, shards)
		}
		for _, id := range used {
			ct, err := st2.Get(id)
			_, sum, statErr := st2.StatRecord(id)
			want, live := latest[id]
			if !live {
				if !errors.Is(err, ErrNotFound) || !errors.Is(statErr, ErrNotFound) {
					t.Fatalf("deleted id %d: Get %v, StatRecord %v; want ErrNotFound", id, err, statErr)
				}
				continue
			}
			if err != nil || statErr != nil {
				t.Fatalf("live id %d: Get %v, StatRecord %v", id, err, statErr)
			}
			if !bytes.Equal(ct.Marshal(), want.blob) || !reflect.DeepEqual(ct.Summary, want.sum) || !reflect.DeepEqual(sum, want.sum) {
				t.Fatalf("live id %d: Get/StatRecord do not serve the latest record", id)
			}
		}
	})
}
