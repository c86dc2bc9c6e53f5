package press

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"
	"time"

	"press/internal/core"
)

// buildSystem generates a small dataset and a System trained on half of it.
func buildSystem(t *testing.T, cfg Config) (*System, *Dataset) {
	t.Helper()
	opt := DefaultDatasetOptions(24)
	opt.City.Rows, opt.City.Cols = 7, 7
	ds, err := GenerateDataset(opt)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(ds.Graph, ds.Trips[:12], cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, ds
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil, nil, DefaultConfig()); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestSystemDefaults(t *testing.T) {
	sys, _ := buildSystem(t, Config{})
	if sys.Config().Theta != 3 {
		t.Errorf("default theta = %d", sys.Config().Theta)
	}
	if sys.Graph() == nil {
		t.Error("Graph() nil")
	}
}

func TestEndToEndPipeline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TSND, cfg.NSTD = 50, 30
	sys, ds := buildSystem(t, cfg)
	for i := range ds.Truth[:8] {
		// Full pipeline from raw GPS.
		ct, err := sys.CompressGPS(ds.Raws[i])
		if err != nil {
			t.Fatalf("traj %d: CompressGPS: %v", i, err)
		}
		back, err := sys.Decompress(ct)
		if err != nil {
			t.Fatalf("traj %d: Decompress: %v", i, err)
		}
		if len(back.Path) == 0 || len(back.Temporal) == 0 {
			t.Fatalf("traj %d: empty decompression", i)
		}
		// Serialization roundtrip.
		ct2, err := Unmarshal(Marshal(ct))
		if err != nil {
			t.Fatalf("traj %d: Unmarshal: %v", i, err)
		}
		back2, err := sys.Decompress(ct2)
		if err != nil || !back2.Path.Equal(back.Path) {
			t.Fatalf("traj %d: serialized form decompresses differently", i)
		}
	}
}

func TestCompressKnownPathBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TSND, cfg.NSTD = 80, 40
	sys, ds := buildSystem(t, cfg)
	for i, tr := range ds.Truth[:10] {
		ct, err := sys.Compress(tr)
		if err != nil {
			t.Fatal(err)
		}
		back, err := sys.Decompress(ct)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Path.Equal(tr.Path) {
			t.Fatalf("traj %d: spatial not lossless", i)
		}
		if got := TSND(tr.Temporal, back.Temporal); got > 80+1e-6 {
			t.Fatalf("traj %d: TSND %v", i, got)
		}
		if got := NSTD(tr.Temporal, back.Temporal); got > 40+1e-6 {
			t.Fatalf("traj %d: NSTD %v", i, got)
		}
	}
}

func TestQueriesThroughFacade(t *testing.T) {
	sys, ds := buildSystem(t, DefaultConfig())
	tr := ds.Truth[0]
	ct, err := sys.Compress(tr)
	if err != nil {
		t.Fatal(err)
	}
	mid := tr.Temporal[0].T + tr.Temporal.Duration()/2
	pos, err := sys.WhereAt(ct, mid)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.PositionAt(ds.Graph, mid)
	if pos.Dist(want) > 1e-6 {
		t.Errorf("WhereAt = %v want %v", pos, want)
	}
	when, err := sys.WhenAt(ct, pos)
	if err != nil {
		t.Fatal(err)
	}
	// The trajectory may pass pos more than once; the reported time must at
	// least put the object at that location.
	posBack, err := sys.WhereAt(ct, when)
	if err != nil || posBack.Dist(pos) > 1 {
		t.Errorf("WhenAt inconsistent: t=%v -> %v (err %v)", when, posBack, err)
	}
	box := NewMBR(Point{X: pos.X - 50, Y: pos.Y - 50}, Point{X: pos.X + 50, Y: pos.Y + 50})
	hit, err := sys.Range(ct, tr.Temporal[0].T, tr.Temporal[len(tr.Temporal)-1].T, box)
	if err != nil || !hit {
		t.Errorf("Range should hit a box around an on-path point (err %v)", err)
	}
	near, err := sys.PassesNear(ct, pos, 10, tr.Temporal[0].T, tr.Temporal[len(tr.Temporal)-1].T)
	if err != nil || !near {
		t.Errorf("PassesNear should hit (err %v)", err)
	}
	d, err := sys.MinDistance(ct, ct)
	if err != nil || d != 0 {
		t.Errorf("MinDistance(self) = %v (err %v)", d, err)
	}
}

func TestCompressAllFacade(t *testing.T) {
	sys, ds := buildSystem(t, DefaultConfig())
	cts, err := sys.CompressAll(ds.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if len(cts) != len(ds.Truth) {
		t.Fatalf("got %d compressed", len(cts))
	}
	var raw, comp int
	for i, ct := range cts {
		raw += ds.Raws[i].SizeBytes()
		comp += ct.SizeBytes()
	}
	if comp >= raw {
		t.Errorf("no net compression: %d -> %d", raw, comp)
	}
	t.Logf("fleet compression ratio %.2f", float64(raw)/float64(comp))
}

// CompressBatch with any worker count must be byte-identical to the serial
// path, and a bad item must fail alone.
func TestCompressBatchFacade(t *testing.T) {
	sys, ds := buildSystem(t, DefaultConfig())
	serial := make([][]byte, len(ds.Truth))
	for i, tr := range ds.Truth {
		ct, err := sys.Compress(tr)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = Marshal(ct)
	}
	for _, workers := range []int{1, 3, 8} {
		cts, errs := sys.CompressBatch(ds.Truth, workers)
		for i := range ds.Truth {
			if errs[i] != nil {
				t.Fatalf("workers=%d item %d: %v", workers, i, errs[i])
			}
			if !bytes.Equal(Marshal(cts[i]), serial[i]) {
				t.Fatalf("workers=%d item %d: bytes differ from serial", workers, i)
			}
		}
	}
	// Partial failure: an out-of-range edge id fails item 2 and nothing else.
	batch := append([]*Trajectory{}, ds.Truth[:5]...)
	batch[2] = &Trajectory{Path: Path{1 << 20}, Temporal: Temporal{{D: 0, T: 0}, {D: 1, T: 1}}}
	cts, errs := sys.CompressBatch(batch, 4)
	for i := range batch {
		if (i == 2) != (errs[i] != nil) {
			t.Fatalf("item %d: unexpected error state %v", i, errs[i])
		}
		if (i == 2) != (cts[i] == nil) {
			t.Fatalf("item %d: unexpected output state", i)
		}
	}
}

// The streaming pipeline facade must reproduce CompressGPS byte-for-byte, in
// submission order, with per-item failures.
func TestIngestGPSFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TSND, cfg.NSTD = 50, 30
	sys, ds := buildSystem(t, cfg)
	raws := append([]RawTrajectory{}, ds.Raws[:10]...)
	raws[4] = RawTrajectory{} // unmatchable
	results, err := sys.IngestGPS(raws, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(raws) {
		t.Fatalf("got %d results", len(results))
	}
	for i, res := range results {
		if res.Seq != i {
			t.Fatalf("result %d out of order (Seq %d)", i, res.Seq)
		}
		if i == 4 {
			if res.Err == nil {
				t.Fatal("empty raw should fail")
			}
			continue
		}
		if res.Err != nil {
			t.Fatalf("item %d: %v", i, res.Err)
		}
		want, err := sys.CompressGPS(raws[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(Marshal(res.Compressed), Marshal(want)) {
			t.Fatalf("item %d: pipeline bytes differ from CompressGPS", i)
		}
	}
}

// End-to-end streaming into a fleet store through the facade: a poison
// item fails alone and is not stored; every other item is stored under its
// submission index.
func TestIngestGPSToStoreFacade(t *testing.T) {
	sys, ds := buildSystem(t, DefaultConfig())
	st, err := sys.NewFleetStore(t.TempDir() + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	feed := append([]RawTrajectory{}, ds.Raws[:8]...)
	feed[3] = RawTrajectory{}
	results, err := sys.IngestGPSToShardedStore(st, feed, 4)
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for i, res := range results {
		_, getErr := st.Get(uint64(i))
		if i == 3 {
			if res.Err == nil || getErr == nil {
				t.Fatalf("poison item: Err=%v, stored=%v", res.Err, getErr == nil)
			}
			continue
		}
		if res.Err == nil {
			if getErr != nil {
				t.Fatalf("item %d not stored: %v", i, getErr)
			}
			stored++
		}
	}
	if st.Len() != stored {
		t.Fatalf("store Len %d want %d", st.Len(), stored)
	}
}

// End-to-end sharded persistence through the facade: ingest with concurrent
// tails, reopen with parallel index rebuild, and query off disk.
func TestShardedFleetStoreFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StoreShards = 4
	sys, ds := buildSystem(t, cfg)
	dir := t.TempDir()

	st, err := sys.NewFleetStore(dir + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards() != 4 {
		t.Fatalf("Shards = %d (Config.StoreShards not honored)", st.Shards())
	}
	results, err := sys.IngestGPSToShardedStore(st, ds.Raws[:10], 4)
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for i, res := range results {
		if res.Err != nil {
			continue
		}
		stored++
		ct, err := st.Get(uint64(i))
		if err != nil {
			t.Fatalf("item %d not in store: %v", i, err)
		}
		if !bytes.Equal(Marshal(ct), Marshal(res.Compressed)) {
			t.Fatalf("item %d: stored bytes differ", i)
		}
	}
	if st.Len() != stored {
		t.Fatalf("store Len %d want %d", st.Len(), stored)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenShardedFleetStore(dir + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != stored {
		t.Fatalf("reopened Len %d want %d", st2.Len(), stored)
	}
	fi, err := sys.NewFleetIndex(st2)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := fi.RangeIDs(0, 1e9, sys.Graph().MBR())
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != stored {
		t.Fatalf("whole-network query found %d of %d", len(hits), stored)
	}
}

func TestReformatFacade(t *testing.T) {
	sys, ds := buildSystem(t, DefaultConfig())
	tr, err := Reformat(sys.Graph(), ds.Trips[0], ds.Raws[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Temporal[0].D) > 30 {
		t.Errorf("start distance %v suspicious", tr.Temporal[0].D)
	}
}

// A stored record decompresses back to the exact original path after a
// close and reopen.
func TestFleetStoreThroughFacade(t *testing.T) {
	sys, ds := buildSystem(t, DefaultConfig())
	dir := t.TempDir() + "/fleet"
	st, err := sys.NewFleetStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range ds.Truth[:6] {
		ct, err := sys.Compress(tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(uint64(i), ct); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenShardedFleetStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 6 {
		t.Fatalf("Len = %d", st2.Len())
	}
	ct, err := st2.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	back, err := sys.Decompress(ct)
	if err != nil || !back.Path.Equal(ds.Truth[3].Path) {
		t.Fatalf("stored trajectory did not round-trip (%v)", err)
	}
}

// The fleet index built through the facade over a store holding the whole
// compressed truth set must return every trajectory for the whole-network
// box over all time.
func TestFleetIndexFacade(t *testing.T) {
	sys, ds := buildSystem(t, DefaultConfig())
	cts, err := sys.CompressAll(ds.Truth)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.NewFleetStore(t.TempDir() + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i, ct := range cts {
		if err := st.Append(uint64(i), ct); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := sys.NewFleetIndex(st)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Len() != len(cts) {
		t.Fatalf("index Len %d want %d", fi.Len(), len(cts))
	}
	all, err := fi.RangeIDs(0, 1e9, ds.Graph.MBR())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(cts) {
		t.Errorf("whole-net query returned %d of %d", len(all), len(cts))
	}
}

// The live stream-ingest facade: per-vehicle sessions flushed to a sharded
// fleet store must be byte-identical to the batch path, idle sessions must
// auto-flush, and shutdown must leave the store readable.
func TestStreamIngestorFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TSND, cfg.NSTD = 50, 30
	cfg.StoreShards = 4
	cfg.SessionIdleFlush = 40 * time.Millisecond
	sys, ds := buildSystem(t, cfg)
	st, err := sys.NewFleetStore(t.TempDir() + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ing, err := sys.NewStreamIngestor(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	// Vehicle 0: explicit flush.
	tr := ds.Truth[0]
	for _, e := range tr.Path {
		if err := ing.PushEdge(0, e); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range tr.Temporal {
		if err := ing.PushSample(0, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Flush(0); err != nil {
		t.Fatal(err)
	}
	want, err := sys.Compress(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Fatal("stream-ingested bytes differ from batch compression")
	}
	// Vehicle 1: goes dark, Config.SessionIdleFlush must flush it.
	tr1 := ds.Truth[1]
	for _, e := range tr1.Path {
		if err := ing.PushEdge(1, e); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range tr1.Temporal {
		if err := ing.PushSample(1, p); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for ing.Active() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if ing.Active() != 0 {
		t.Fatal("idle session never auto-flushed through the facade")
	}
	if _, err := st.Get(1); err != nil {
		t.Fatalf("idle-flushed record unreadable: %v", err)
	}
	if err := ing.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ing.PushEdge(2, tr.Path[0]); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("push after Shutdown = %v, want ErrStreamClosed", err)
	}
}

// Context-taking ingest variants: cancellation surfaces without losing the
// per-item Result shape.
func TestIngestGPSContextCancel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TSND, cfg.NSTD = 50, 30
	sys, ds := buildSystem(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := sys.IngestGPSContext(ctx, ds.Raws[:8], 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("IngestGPSContext = %v, want context.Canceled", err)
	}
	if len(results) != 8 {
		t.Fatalf("got %d results for 8 inputs", len(results))
	}
	// The uncancelled variant still drains fully.
	results, err = sys.IngestGPSContext(context.Background(), ds.Raws[:8], 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("item %d: %v", i, res.Err)
		}
	}
}

// Config.MinWorkers/MaxWorkers flow through to pipelines created without an
// explicit worker count.
func TestAdaptivePoolConfigFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TSND, cfg.NSTD = 50, 30
	cfg.MinWorkers, cfg.MaxWorkers = 1, 3
	sys, ds := buildSystem(t, cfg)
	p, err := sys.NewPipeline(sys.pipelineOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Workers(); got != 1 {
		t.Fatalf("adaptive pipeline started with %d workers, want MinWorkers=1", got)
	}
	go p.Close()
	for range p.Results() {
	}
	// Explicit worker counts still win.
	results, err := sys.IngestGPS(ds.Raws[:4], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
}

// TestCompactFleetStoreFacade exercises the facade compaction wrapper.
func TestCompactFleetStoreFacade(t *testing.T) {
	dir := t.TempDir()
	st, err := CreateShardedFleetStore(filepath.Join(dir, "src"), 2)
	if err != nil {
		t.Fatal(err)
	}
	ct := &Compressed{Spatial: &core.SpatialCode{Bits: []byte{1, 2}, NBits: 12}, Temporal: Temporal{{D: 0, T: 0}, {D: 5, T: 9}}}
	for i := 0; i < 3; i++ {
		if err := st.Append(7, ct); err != nil { // same id three times
			t.Fatal(err)
		}
	}
	if err := st.Append(8, ct); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	kept, dropped, err := CompactFleetStore(filepath.Join(dir, "src"), filepath.Join(dir, "dst"))
	if err != nil {
		t.Fatal(err)
	}
	if kept != 2 || dropped != 2 {
		t.Fatalf("kept, dropped = %d, %d want 2, 2", kept, dropped)
	}
}
