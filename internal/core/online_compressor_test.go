package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"press/internal/gen"
	"press/internal/roadnet"
	"press/internal/spindex"
	"press/internal/traj"
)

// streamThrough pushes a whole trajectory through an OnlineCompressor,
// interleaving edges and samples the way a live feed would, and flushes.
func streamThrough(o *OnlineCompressor, tr *traj.Trajectory) (*Compressed, error) {
	_ = tr.Replay(
		func(e roadnet.EdgeID) error { o.PushEdge(e); return nil },
		func(p traj.Entry) error { o.PushSample(p); return nil },
	)
	return o.Flush()
}

// The streaming compressor must produce byte-identical records to the batch
// Compressor.Compress on every input, across error bounds and reuse.
func TestOnlineCompressorMatchesBatch(t *testing.T) {
	for _, b := range []struct{ tau, eta float64 }{
		{0, 0}, {50, 30}, {1000, 1000},
	} {
		c, genPath, rng := testCompressor(t, b.tau, b.eta)
		o, err := NewOnlineCompressor(c)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 150; trial++ {
			tr := synthTrajectory(c, genPath(rng.Intn(30)+1), rng)
			want, err := c.Compress(tr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := streamThrough(o, tr) // one shared instance: Flush must reset
			if err != nil {
				t.Fatalf("tau=%v eta=%v trial %d: %v", b.tau, b.eta, trial, err)
			}
			if !bytes.Equal(got.Marshal(), want.Marshal()) {
				t.Fatalf("tau=%v eta=%v trial %d: online bytes differ from batch", b.tau, b.eta, trial)
			}
		}
	}
}

// Equivalence over the full generator corpus: the ground-truth trajectories
// of a synthetic fleet, streamed as a live feed.
func TestOnlineCompressorMatchesBatchOnCorpus(t *testing.T) {
	opt := gen.Default(30)
	opt.City.Rows, opt.City.Cols = 6, 6
	ds, err := gen.Generate(opt)
	if err != nil {
		t.Fatal(err)
	}
	tab := spindex.NewTable(ds.Graph)
	corpus := make([]traj.Path, 0, len(ds.Trips))
	for _, p := range ds.Trips {
		corpus = append(corpus, SPCompress(tab, p))
	}
	cb, err := Train(corpus, TrainOptions{NumEdges: ds.Graph.NumEdges(), Theta: 3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCompressor(ds.Graph, tab, cb, 50, 30)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOnlineCompressor(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range ds.Truth {
		want, err := c.Compress(tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := streamThrough(o, tr)
		if err != nil {
			t.Fatalf("trajectory %d: %v", i, err)
		}
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("trajectory %d: online bytes differ from batch", i)
		}
	}
}

func TestOnlineCompressorResetAndCounters(t *testing.T) {
	c, genPath, rng := testCompressor(t, 25, 20)
	o, err := NewOnlineCompressor(c)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Empty() {
		t.Error("fresh compressor not empty")
	}
	tr := synthTrajectory(c, genPath(12), rng)
	for _, e := range tr.Path {
		o.PushEdge(e)
	}
	for _, p := range tr.Temporal {
		o.PushSample(p)
	}
	if o.Edges() != len(tr.Path) || o.Samples() != len(tr.Temporal) {
		t.Fatalf("counters: %d/%d edges, %d/%d samples",
			o.Edges(), len(tr.Path), o.Samples(), len(tr.Temporal))
	}
	o.Reset()
	if !o.Empty() {
		t.Error("Reset left state behind")
	}
	// After an abandoned trajectory the next one must still match batch.
	tr2 := synthTrajectory(c, genPath(9), rng)
	want, err := c.Compress(tr2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := streamThrough(o, tr2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Fatal("post-Reset stream differs from batch")
	}
}

// A flush that fails (edge outside the codebook alphabet) must leave the
// compressor reusable.
func TestOnlineCompressorFlushErrorResets(t *testing.T) {
	c, genPath, rng := testCompressor(t, 50, 30)
	o, err := NewOnlineCompressor(c)
	if err != nil {
		t.Fatal(err)
	}
	o.PushEdge(roadnet.EdgeID(c.Graph.NumEdges() + 99))
	if _, err := o.Flush(); err == nil {
		t.Fatal("out-of-range edge flushed without error")
	}
	if !o.Empty() {
		t.Fatal("failed Flush left state behind")
	}
	tr := synthTrajectory(c, genPath(8), rng)
	want, err := c.Compress(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := streamThrough(o, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Fatal("post-failure stream differs from batch")
	}
}

// fuzzEnv builds the shared grid compressors once — one over the oracle
// Table, one over the Hier the system serves, sharing one codebook; fuzzing
// mutates only the trajectory, not the static structures.
var fuzzEnv struct {
	once sync.Once
	cs   []*Compressor
	err  error
}

func fuzzCompressors() ([]*Compressor, error) {
	fuzzEnv.once.Do(func() {
		g, err := roadnet.Grid(5, 5, 100)
		if err != nil {
			fuzzEnv.err = err
			return
		}
		tab := spindex.NewTable(g)
		rng := rand.New(rand.NewSource(97))
		var corpus []traj.Path
		for i := 0; i < 40; i++ {
			corpus = append(corpus, SPCompress(tab, randomWalk(g, rng, rng.Intn(25)+2)))
		}
		cb, err := Train(corpus, TrainOptions{NumEdges: g.NumEdges(), Theta: 3})
		if err != nil {
			fuzzEnv.err = err
			return
		}
		for _, sp := range []spindex.SP{tab, spindex.NewHier(g)} {
			c, err := NewCompressor(g, sp, cb, 50, 30)
			if err != nil {
				fuzzEnv.err = err
				return
			}
			fuzzEnv.cs = append(fuzzEnv.cs, c)
		}
	})
	return fuzzEnv.cs, fuzzEnv.err
}

// FuzzOnlineCompressorEquivalence derives a random but valid trajectory from
// the fuzz input and asserts the streaming record is byte-identical to the
// batch record, on the Table and on the Hier. The compressor is parked after
// the edges parkMask picks (bit i%64 for the i-th edge), as a session is at
// every frame boundary.
func FuzzOnlineCompressorEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(3), uint64(0))
	f.Add(int64(42), uint8(1), uint8(1), uint64(1))
	f.Add(int64(-7), uint8(60), uint8(40), uint64(0x5a5a_0f0f_3c3c_9999))
	f.Fuzz(func(t *testing.T, seed int64, pathLen, tempLen uint8, parkMask uint64) {
		cs, err := fuzzCompressors()
		if err != nil {
			t.Fatal(err)
		}
		g := cs[0].Graph
		rng := rand.New(rand.NewSource(seed))
		path := randomWalk(g, rng, int(pathLen%64)+1)
		total := g.PathLength(path)
		n := int(tempLen%64) + 1
		ts := make(traj.Temporal, 0, n)
		d, tm := 0.0, 0.0
		for i := 0; i < n; i++ {
			ts = append(ts, traj.Entry{D: d, T: tm})
			tm += 1 + rng.Float64()*20
			if rng.Float64() < 0.7 {
				d += rng.Float64() * total / float64(n)
				if d > total {
					d = total
				}
			}
		}
		tr := &traj.Trajectory{Path: path, Temporal: ts}
		want, err := cs[0].Compress(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cs {
			if b, err := c.Compress(tr); err != nil || !bytes.Equal(b.Marshal(), want.Marshal()) {
				t.Fatalf("seed=%d: batch bytes differ across SP sources (err %v)", seed, err)
			}
			o, err := NewOnlineCompressor(c)
			if err != nil {
				t.Fatal(err)
			}
			edges := 0
			_ = tr.Replay(
				func(e roadnet.EdgeID) error {
					o.PushEdge(e)
					if parkMask&(1<<(edges%64)) != 0 {
						o.Park()
					}
					edges++
					return nil
				},
				func(p traj.Entry) error { o.PushSample(p); return nil },
			)
			got, err := o.Flush()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Marshal(), want.Marshal()) {
				t.Fatalf("seed=%d pathLen=%d tempLen=%d parkMask=%#x: online bytes differ from batch on %T",
					seed, pathLen, tempLen, parkMask, c.SP)
			}
		}
	})
}
