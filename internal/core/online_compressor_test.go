package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

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

// compressReference is Compressor.Compress assembled from the batch
// reference loops and the path polyline's MBR: the oracle for the streaming
// compressor, and so for Compress. It expects a valid trajectory.
func compressReference(c *Compressor, tr *traj.Trajectory) (*Compressed, error) {
	sc, err := c.CB.Encode(spCompressReference(c.SP, tr.Path))
	if err != nil {
		return nil, err
	}
	temporal := btcReference(tr.Temporal, c.Tau, c.Eta)
	sum := &BoundingSummary{MBR: c.Graph.PathPolyline(tr.Path).MBR(), T0: math.Inf(1), T1: math.Inf(-1)}
	if n := len(temporal); n > 0 {
		sum.T0, sum.T1 = temporal[0].T, temporal[n-1].T
	}
	return &Compressed{Spatial: sc, Temporal: temporal, Summary: sum}, nil
}

// recordBytes is a record's Marshal bytes followed by its summary's.
func recordBytes(ct *Compressed) []byte {
	sum := ct.Summary.Marshal()
	return append(ct.Marshal(), sum[:]...)
}

// The streaming compressor must produce the reference record, bytes and
// summary, on every input, across error bounds and reuse.
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
			want, err := compressReference(c, tr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := streamThrough(o, tr) // one shared instance: Flush must reset
			if err != nil {
				t.Fatalf("tau=%v eta=%v trial %d: %v", b.tau, b.eta, trial, err)
			}
			if !bytes.Equal(recordBytes(got), recordBytes(want)) {
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
		want, err := compressReference(c, tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := streamThrough(o, tr)
		if err != nil {
			t.Fatalf("trajectory %d: %v", i, err)
		}
		if !bytes.Equal(recordBytes(got), recordBytes(want)) {
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
	want, err := compressReference(c, tr2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := streamThrough(o, tr2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recordBytes(got), recordBytes(want)) {
		t.Fatal("post-Reset stream differs from batch")
	}
}

// A flush that fails (edge outside the codebook alphabet) must leave the
// compressor reusable. PushEdge refuses edges outside the network, so the
// edge here is in the network but outside a codebook trained over a
// narrower alphabet.
func TestOnlineCompressorFlushErrorResets(t *testing.T) {
	full, genPath, rng := testCompressor(t, 50, 30)
	last := roadnet.EdgeID(full.Graph.NumEdges() - 1)
	narrow, err := Train(nil, TrainOptions{NumEdges: int(last), Theta: 3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCompressor(full.Graph, full.SP, narrow, full.Tau, full.Eta)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOnlineCompressor(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.PushEdge(last); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Flush(); err == nil {
		t.Fatal("edge outside the codebook flushed without error")
	}
	if !o.Empty() {
		t.Fatal("failed Flush left state behind")
	}
	path := genPath(8)
	for slices.Contains(path, last) {
		path = genPath(8)
	}
	tr := synthTrajectory(c, path, rng)
	want, err := compressReference(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := streamThrough(o, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recordBytes(got), recordBytes(want)) {
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
// the fuzz input and asserts that Compress and the streaming record both
// equal the reference record, on the Table and on the Hier. The streaming
// compressor is parked after the edges parkMask picks (bit i%64 for the
// i-th edge), as a session is at every frame boundary.
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
		want, err := compressReference(cs[0], tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cs {
			if b, err := c.Compress(tr); err != nil || !bytes.Equal(recordBytes(b), recordBytes(want)) {
				t.Fatalf("seed=%d: Compress differs from the reference on %T (err %v)", seed, c.SP, err)
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
			if !bytes.Equal(recordBytes(got), recordBytes(want)) {
				t.Fatalf("seed=%d pathLen=%d tempLen=%d parkMask=%#x: online bytes differ from the reference on %T",
					seed, pathLen, tempLen, parkMask, c.SP)
			}
		}
	})
}

// malformedSamples are sample sequences whose last tuple breaks the
// temporal invariants: each once sent BTC's retain-and-re-evaluate loop
// spinning. Every prefix before the last tuple is valid.
var malformedSamples = []struct {
	name string
	ts   traj.Temporal
}{
	{"repeats the anchor", traj.Temporal{{D: 0, T: 5}, {D: 0, T: 5}}},
	{"time goes backward", traj.Temporal{{D: 0, T: 0}, {D: 10, T: 5}, {D: 20, T: 4}}},
	{"time stalls", traj.Temporal{{D: 0, T: 0}, {D: 10, T: 5}, {D: 20, T: 5}}},
	{"distance decreases", traj.Temporal{{D: 0, T: 0}, {D: 10, T: 5}, {D: 5, T: 10}}},
	{"NaN distance", traj.Temporal{{D: 0, T: 0}, {D: math.NaN(), T: 5}}},
	{"NaN time", traj.Temporal{{D: 0, T: 0}, {D: 10, T: math.NaN()}}},
	{"infinite time", traj.Temporal{{D: 0, T: 0}, {D: 10, T: math.Inf(1)}}},
	{"non-finite first sample", traj.Temporal{{D: math.Inf(-1), T: 0}}},
}

// withDeadline fails t when fn has not returned within a generous bound —
// the failure mode under test is an endless loop, not slowness.
func withDeadline(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("did not return: endless loop")
	}
}

// BTC must end on malformed input instead of re-evaluating a failing tuple
// forever, and end with a subsequence of the input: each retained tuple at
// a strictly later index than the one before, none retained twice.
func TestBTCTerminatesOnMalformedInput(t *testing.T) {
	for _, tc := range malformedSamples {
		var got traj.Temporal
		withDeadline(t, func() { got = BTC(tc.ts, 0, 0) })
		i := 0
		for k, e := range got {
			// Compare bits: a NaN tuple must match itself.
			for i < len(tc.ts) && (math.Float64bits(tc.ts[i].D) != math.Float64bits(e.D) ||
				math.Float64bits(tc.ts[i].T) != math.Float64bits(e.T)) {
				i++
			}
			if i == len(tc.ts) {
				t.Fatalf("%s: output %v is no subsequence of %v (tuple %d)", tc.name, got, tc.ts, k)
			}
			i++
		}
	}
}

// OnlineCompressor refuses a malformed observation with an error and
// changes nothing: the record it flushes afterwards is the batch record of
// the valid observations alone.
func TestOnlineCompressorRefusesBadObservations(t *testing.T) {
	c, genPath, _ := testCompressor(t, 50, 30)
	path := genPath(6)
	n := roadnet.EdgeID(c.Graph.NumEdges())
	for _, tc := range malformedSamples {
		valid, bad := tc.ts[:len(tc.ts)-1], tc.ts[len(tc.ts)-1]
		o, err := NewOnlineCompressor(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range path {
			if err := o.PushEdge(e); err != nil {
				t.Fatalf("%s: valid edge refused: %v", tc.name, err)
			}
		}
		for _, p := range valid {
			if err := o.PushSample(p); err != nil {
				t.Fatalf("%s: valid sample refused: %v", tc.name, err)
			}
		}
		if err := o.PushSample(bad); err == nil {
			t.Fatalf("%s: PushSample accepted %+v", tc.name, bad)
		}
		// A combined observation is refused whole: its valid edge stays out.
		if err := o.Push(path[len(path)-1], bad, true); err == nil {
			t.Fatalf("%s: Push accepted %+v", tc.name, bad)
		}
		for _, e := range []roadnet.EdgeID{n, n + 7, -1, roadnet.NoEdge - 5} {
			if err := o.PushEdge(e); err == nil {
				t.Fatalf("PushEdge accepted edge %d of %d", e, n)
			}
		}
		if o.Edges() != len(path) || o.Samples() != len(valid) {
			t.Fatalf("%s: refused pushes counted: %d edges, %d samples", tc.name, o.Edges(), o.Samples())
		}
		got, err := o.Flush()
		if err != nil {
			t.Fatal(err)
		}
		want, err := compressReference(c, &traj.Trajectory{Path: path, Temporal: valid})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(recordBytes(got), recordBytes(want)) {
			t.Fatalf("%s: record after a refused push differs from batch", tc.name)
		}
		// Batch compression refuses the whole malformed sequence.
		if _, err := c.Compress(&traj.Trajectory{Path: path, Temporal: tc.ts}); err == nil {
			t.Fatalf("%s: Compress accepted the malformed sequence", tc.name)
		}
	}
	if _, err := c.Compress(&traj.Trajectory{Path: traj.Path{n}}); err == nil {
		t.Fatal("Compress accepted an edge outside the network")
	}
}
