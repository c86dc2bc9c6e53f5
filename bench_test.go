// Benchmarks: testing.B timings of the code paths behind the tables and
// figures of PRESS §6. cmd/pressbench prints the figures' series; these
// time the same operations. Run with:
//
//	go test -bench=. -benchmem
package press

import (
	"fmt"
	"sync"
	"testing"

	"press/internal/baseline"
	"press/internal/core"
	"press/internal/experiments"
	"press/internal/gen"
	"press/internal/geo"
	"press/internal/query"
	"press/internal/roadnet"
	"press/internal/spindex"
	"press/internal/traj"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchEng  *query.Engine
	benchErr  error
)

func benchSetup(b *testing.B) (*experiments.Env, *query.Engine) {
	b.Helper()
	benchOnce.Do(func() {
		opt := gen.Options{
			City:  gen.CityOptions{Rows: 10, Cols: 10, Spacing: 200, PosJitter: 0.2, RemoveEdgeProb: 0.08, Seed: 1},
			Trips: gen.DefaultTrips(80),
			GPS:   gen.DefaultGPS(),
		}
		benchEnv, benchErr = experiments.NewEnvOptions(80, 3, opt)
		if benchErr != nil {
			return
		}
		benchEng, benchErr = query.NewEngine(benchEnv.DS.Graph, benchEnv.Tab, benchEnv.CB)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv, benchEng
}

// BenchmarkFig10aSPCompression measures Algorithm 1 over the fleet — the
// O(|T|) shortest-path stage whose ratio Fig. 10(a) sweeps.
func BenchmarkFig10aSPCompression(b *testing.B) {
	env, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip := env.DS.Trips[i%len(env.DS.Trips)]
		_ = core.SPCompress(env.Tab, trip)
	}
}

// BenchmarkFig10bFSTCompression measures the θ=3 greedy FST stage of
// Fig. 10(b): Aho–Corasick decomposition plus Huffman coding.
func BenchmarkFig10bFSTCompression(b *testing.B) {
	env, _ := benchSetup(b)
	sp := make([]traj.Path, len(env.DS.Trips))
	for i, t := range env.DS.Trips {
		sp[i] = core.SPCompress(env.Tab, t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.CB.Encode(sp[i%len(sp)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11GreedyVsDP compares the two decomposition strategies of
// Fig. 11 head to head.
func BenchmarkFig11GreedyVsDP(b *testing.B) {
	env, _ := benchSetup(b)
	sp := make([]traj.Path, len(env.DS.Trips))
	for i, t := range env.DS.Trips {
		sp[i] = core.SPCompress(env.Tab, t)
	}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := env.CB.Encode(sp[i%len(sp)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := env.CB.EncodeDP(sp[i%len(sp)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig12aBTC measures Algorithm 3 at a representative mid-grid
// point of Fig. 12(a) (τ=100 m, η=60 s).
func BenchmarkFig12aBTC(b *testing.B) {
	env, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := env.DS.Truth[i%len(env.DS.Truth)]
		_ = core.BTC(tr.Temporal, 100, 60)
	}
}

// BenchmarkFig12bPRESS measures the full PRESS compression (HSC + BTC) per
// trajectory, the quantity behind Fig. 12(b).
func BenchmarkFig12bPRESS(b *testing.B) {
	env, _ := benchSetup(b)
	comp, err := env.Compressor(100, 60)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.Compress(env.DS.Truth[i%len(env.DS.Truth)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13Compression compares per-trajectory compression cost across
// the three systems of Fig. 13(a).
func BenchmarkFig13Compression(b *testing.B) {
	env, _ := benchSetup(b)
	comp, err := env.Compressor(100, 60)
	if err != nil {
		b.Fatal(err)
	}
	nm := &baseline.Nonmaterial{G: env.DS.Graph}
	mm := &baseline.MMTC{G: env.DS.Graph, SP: env.Tab}
	b.Run("press", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := comp.Compress(env.DS.Truth[i%len(env.DS.Truth)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nonmaterial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nm.Compress(env.DS.Truth[i%len(env.DS.Truth)], 100); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mmtc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mm.Compress(env.DS.Truth[i%len(env.DS.Truth)], 100); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig13Decompression compares decompression (Fig. 13(b); MMTC
// cannot decompress).
func BenchmarkFig13Decompression(b *testing.B) {
	env, _ := benchSetup(b)
	comp, err := env.Compressor(100, 60)
	if err != nil {
		b.Fatal(err)
	}
	cts, err := comp.CompressAll(env.DS.Truth)
	if err != nil {
		b.Fatal(err)
	}
	nm := &baseline.Nonmaterial{G: env.DS.Graph}
	nmcs := make([]*baseline.NMCompressed, len(env.DS.Truth))
	for i, tr := range env.DS.Truth {
		if nmcs[i], err = nm.Compress(tr, 100); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("press", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := comp.Decompress(cts[i%len(cts)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nonmaterial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = nmcs[i%len(nmcs)].Decompress()
		}
	})
}

// BenchmarkFig14RatioVsTSED compresses the fleet at TSED=200 m and reports
// the achieved ratio as a custom metric alongside the timing.
func BenchmarkFig14RatioVsTSED(b *testing.B) {
	env, _ := benchSetup(b)
	comp, err := env.Compressor(200, 200/env.MeanSpeed)
	if err != nil {
		b.Fatal(err)
	}
	var rawBytes, compBytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(env.DS.Truth)
		ct, err := comp.Compress(env.DS.Truth[k])
		if err != nil {
			b.Fatal(err)
		}
		rawBytes += env.DS.Raws[k].SizeBytes()
		compBytes += ct.SizeBytes()
	}
	if compBytes > 0 {
		b.ReportMetric(float64(rawBytes)/float64(compBytes), "ratio")
	}
}

// BenchmarkFig15WhereAt compares whereat over compressed vs raw (Fig. 15).
func BenchmarkFig15WhereAt(b *testing.B) {
	env, eng := benchSetup(b)
	comp, err := env.Compressor(100, 60)
	if err != nil {
		b.Fatal(err)
	}
	cts, err := comp.CompressAll(env.DS.Truth)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("compressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := i % len(cts)
			tr := env.DS.Truth[k]
			t := tr.Temporal[0].T + tr.Temporal.Duration()/2
			if _, err := eng.WhereAt(cts[k], t); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := i % len(env.DS.Truth)
			tr := env.DS.Truth[k]
			t := tr.Temporal[0].T + tr.Temporal.Duration()/2
			_ = query.WhereAtRaw(env.DS.Graph, tr, t)
		}
	})
}

// BenchmarkFig16WhenAt compares whenat over compressed vs raw (Fig. 16).
func BenchmarkFig16WhenAt(b *testing.B) {
	env, eng := benchSetup(b)
	comp, err := env.Compressor(100, 60)
	if err != nil {
		b.Fatal(err)
	}
	cts, err := comp.CompressAll(env.DS.Truth)
	if err != nil {
		b.Fatal(err)
	}
	points := make([]geo.Point, len(env.DS.Truth))
	for i, tr := range env.DS.Truth {
		points[i] = env.DS.Graph.PointAlongPath([]roadnet.EdgeID(tr.Path), tr.Temporal.Distance()/2)
	}
	b.Run("compressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := i % len(cts)
			if _, err := eng.WhenAt(cts[k], points[k]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := i % len(env.DS.Truth)
			if _, err := query.WhenAtRaw(env.DS.Graph, env.DS.Truth[k], points[k]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig17Range compares range over compressed vs raw (Fig. 17).
func BenchmarkFig17Range(b *testing.B) {
	env, eng := benchSetup(b)
	comp, err := env.Compressor(100, 60)
	if err != nil {
		b.Fatal(err)
	}
	cts, err := comp.CompressAll(env.DS.Truth)
	if err != nil {
		b.Fatal(err)
	}
	center := env.DS.Graph.MBR().Center()
	box := geo.NewMBR(
		geo.Point{X: center.X - 250, Y: center.Y - 250},
		geo.Point{X: center.X + 250, Y: center.Y + 250})
	b.Run("compressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := i % len(cts)
			if _, err := eng.Range(cts[k], 0, 600, box); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := i % len(env.DS.Truth)
			_ = query.RangeRaw(env.DS.Graph, env.DS.Truth[k], 0, 600, box)
		}
	})
}

// BenchmarkCompressAllParallel sweeps the batch-compression worker pool —
// the "Paralleled" axis of PRESS. The traj/s metric is the fleet throughput;
// on multi-core hardware 4 workers should run at >=2x the serial rate (the
// per-item work is pure CPU and the shortest-path table is shared read-mostly
// state). workers=1 is the serial reference path: it runs inline, without
// goroutines or pool overhead.
func BenchmarkCompressAllParallel(b *testing.B) {
	env, _ := benchSetup(b)
	comp, err := env.Compressor(100, 60)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the shortest-path rows so every variant measures compression, not
	// first-touch Dijkstra cost.
	if _, errs := comp.CompressBatch(env.DS.Truth, 0); errs[0] != nil {
		b.Fatal(errs[0])
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, errs := comp.CompressBatch(env.DS.Truth, workers)
				for j, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
					if out[j] == nil {
						b.Fatal("nil output")
					}
				}
			}
			b.ReportMetric(
				float64(b.N)*float64(len(env.DS.Truth))/b.Elapsed().Seconds(), "traj/s")
		})
	}
}

// BenchmarkPrecomputeAllParallel measures the sharded all-pair preprocessing
// (one line-graph Dijkstra per source edge, batched writes) that amortizes
// the paper's §3.1 assumption off the compression hot path.
func BenchmarkPrecomputeAllParallel(b *testing.B) {
	env, _ := benchSetup(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab := spindex.NewTable(env.DS.Graph)
				tab.PrecomputeAllParallel(workers)
			}
		})
	}
}

// BenchmarkTable1PaperExample runs the worked FST example of Table 1 —
// decomposition plus Huffman coding of the paper's 11-edge trajectory.
func BenchmarkTable1PaperExample(b *testing.B) {
	corpus := []traj.Path{
		{0, 4, 7, 5, 2}, {0, 4, 1, 0, 3, 7}, {1, 0, 3, 5},
	}
	cb, err := core.Train(corpus, core.TrainOptions{NumEdges: 10, Theta: 3})
	if err != nil {
		b.Fatal(err)
	}
	input := traj.Path{0, 3, 6, 4, 7, 5, 2, 0, 4, 1, 9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cb.Encode(input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAuxStructureBuild measures the one-off preprocessing costs the
// §6.2 discussion justifies: FST training and query-aux construction.
func BenchmarkAuxStructureBuild(b *testing.B) {
	env, _ := benchSetup(b)
	b.Run("train-codebook", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := env.RetrainTheta(3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("query-engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query.NewEngine(env.DS.Graph, env.Tab, env.CB); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOnlineCompressorPush isolates the per-point hot path: one
// session's PushEdge+PushSample cost without manager or store overhead.
func BenchmarkOnlineCompressorPush(b *testing.B) {
	env, _ := benchSetup(b)
	comp, err := env.Compressor(100, 60)
	if err != nil {
		b.Fatal(err)
	}
	oc, err := core.NewOnlineCompressor(comp)
	if err != nil {
		b.Fatal(err)
	}
	tr := env.DS.Truth[0]
	b.ResetTimer()
	points := 0
	for i := 0; i < b.N; i++ {
		for _, e := range tr.Path {
			oc.PushEdge(e)
		}
		for _, p := range tr.Temporal {
			oc.PushSample(p)
		}
		points += len(tr.Path) + len(tr.Temporal)
		if _, err := oc.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
}
