// Command pressbench regenerates every table and figure of the PRESS
// evaluation (§6) on the synthetic workload. Each figure prints as an
// aligned text table: one row per x value, one column per series, with the
// paper's reported numbers quoted in the notes for comparison.
//
//	pressbench                  # run everything at the default scale
//	pressbench -fig fig14       # one figure
//	pressbench -trips 500       # larger fleet (slower, smoother curves)
//
// Figure ids: fig10a fig10b fig11a fig11b fig12a fig12b fig13 fig14 fig15
// fig16 fig17 aux, plus the extensions: ablation (per-stage contribution),
// qscale (query time vs trajectory length), pipeline (streaming ingest
// throughput vs worker count; -workers sets the top of the sweep),
// storebench (sharded fleet-store append throughput at 1/2/4/8 shards),
// streambench (live per-vehicle session ingest: per-point push latency and
// sessions/s at 1/2/4/8 concurrent feeders), serverbench (the pressd
// HTTP serving layer over loopback: ingest points/s over the wire, then
// whereat requests/s at 1/2/4/8 concurrent clients), querybench
// (fleet-range p50 at 1x/10x/100x stored history: the incremental index +
// bounding summaries must keep latency flat as old epochs accumulate) and
// clusterbench (the partitioned fleet tier: bulk ingest and whereat
// throughput through the scatter-gather router at 1/2/4 nodes).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"math/rand"
	"path/filepath"

	"press/internal/cluster"
	"press/internal/core"
	"press/internal/experiments"
	"press/internal/gen"
	"press/internal/mapmatch"
	"press/internal/pipeline"
	"press/internal/query"
	"press/internal/roadnet"
	"press/internal/server"
	"press/internal/spindex"
	"press/internal/store"
	"press/internal/stream"
	"press/internal/traj"
	"press/internal/wire"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure id to run (or 'all')")
		trips   = flag.Int("trips", 150, "fleet size")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0),
			"worker pool size for the parallel stages (SP precompute, pipeline scenario)")
		spscale = flag.Int("spscale", 16,
			"largest network scale for the spbench race (perfect square: 1, 4 or 16)")
	)
	flag.Parse()
	if *workers < 1 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *fig != "all" && !knownFig(*fig) {
		fatal(fmt.Errorf("unknown figure %q", *fig))
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "generating %d-trip workload...\n", *trips)
	env, err := experiments.NewEnv(*trips)
	if err != nil {
		fatal(err)
	}
	// Materialize the shortest-path rows up front over the worker pool (the
	// paper's preprocessing), so every figure measures warm-path behavior.
	// qscale builds its own environments and never reads this table, and
	// storebench/streambench touch few distinct rows (lazy rows suffice),
	// so runs of just those skip the O(|E|^2) cost.
	if *fig == "all" || !(strings.EqualFold(*fig, "qscale") ||
		strings.EqualFold(*fig, "storebench") || strings.EqualFold(*fig, "streambench") ||
		strings.EqualFold(*fig, "spbench") || strings.EqualFold(*fig, "spbuild") ||
		strings.EqualFold(*fig, "serverbench") || strings.EqualFold(*fig, "querybench") ||
		strings.EqualFold(*fig, "clusterbench")) {
		env.Tab.PrecomputeAllParallel(*workers)
	}
	eng, err := query.NewEngine(env.DS.Graph, env.Tab, env.CB)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "workload ready in %v (%d edges, %d trajectories)\n\n",
		time.Since(start).Round(time.Millisecond), env.DS.Graph.NumEdges(), len(env.DS.Truth))

	type runner struct {
		id  string
		run func() error
	}
	show := func(f *experiments.Figure, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(f.Format())
		return nil
	}
	runners := []runner{
		{"fig10a", func() error {
			f, err := experiments.RunFig10a(env, nil, 40)
			return show(f, err)
		}},
		{"fig10b", func() error {
			f, err := experiments.RunFig10b(env, nil)
			return show(f, err)
		}},
		{"fig11a", func() error {
			f, err := experiments.RunFig11a(env, nil)
			return show(f, err)
		}},
		{"fig11b", func() error {
			f, err := experiments.RunFig11b(env, nil)
			return show(f, err)
		}},
		{"fig12a", func() error {
			f, err := experiments.RunFig12a(env, nil)
			return show(f, err)
		}},
		{"fig12b", func() error {
			f, err := experiments.RunFig12b(env, nil)
			return show(f, err)
		}},
		{"fig13", func() error {
			a, b, err := experiments.RunFig13(env, nil)
			if err != nil {
				return err
			}
			fmt.Println(a.Format())
			fmt.Println(b.Format())
			return nil
		}},
		{"fig14", func() error {
			f, err := experiments.RunFig14(env, nil)
			return show(f, err)
		}},
		{"fig15", func() error {
			f, err := experiments.RunFig15(env, eng, nil, 0)
			return show(f, err)
		}},
		{"fig16", func() error {
			f, err := experiments.RunFig16(env, eng, nil, 0)
			return show(f, err)
		}},
		{"fig17", func() error {
			f, err := experiments.RunFig17(env, eng, 0)
			return show(f, err)
		}},
		{"aux", func() error {
			f, err := experiments.RunAuxSizes(env, eng)
			return show(f, err)
		}},
		{"ablation", func() error {
			f, err := experiments.RunAblation(env)
			return show(f, err)
		}},
		{"qscale", func() error {
			f, err := experiments.RunQueryScaling(nil, 0)
			return show(f, err)
		}},
		{"pipeline", func() error {
			return runPipelineScenario(env, *workers)
		}},
		{"storebench", func() error {
			return runStoreBenchScenario(env)
		}},
		{"streambench", func() error {
			return runStreamBenchScenario(env)
		}},
		{"spbench", func() error {
			return runSPBenchScenario(*workers, *spscale)
		}},
		{"spbuild", func() error {
			return runSPBuildScenario(*spscale)
		}},
		{"serverbench", func() error {
			return runServerBenchScenario(env, *workers)
		}},
		{"querybench", func() error {
			return runQueryBenchScenario(env, *workers)
		}},
		{"clusterbench", func() error {
			return runClusterBenchScenario(env, *workers)
		}},
	}
	ran := 0
	for _, r := range runners {
		if *fig != "all" && !strings.EqualFold(*fig, r.id) {
			continue
		}
		t0 := time.Now()
		if err := r.run(); err != nil {
			fatal(fmt.Errorf("%s: %w", r.id, err))
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", r.id, time.Since(t0).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fatal(fmt.Errorf("unknown figure %q", *fig))
	}
}

// figIDs mirrors the runner table in main; keep the two in sync (the
// ran == 0 check in main backstops a divergence).
var figIDs = []string{
	"fig10a", "fig10b", "fig11a", "fig11b", "fig12a", "fig12b", "fig13",
	"fig14", "fig15", "fig16", "fig17", "aux", "ablation", "qscale", "pipeline",
	"storebench", "streambench", "spbench", "spbuild", "serverbench", "querybench",
	"clusterbench",
}

// knownFig reports whether id names a runner, so bad ids fail before the
// workload is generated and the shortest-path table precomputed.
func knownFig(id string) bool {
	for _, known := range figIDs {
		if strings.EqualFold(id, known) {
			return true
		}
	}
	return false
}

// runPipelineScenario sweeps the streaming ingest pipeline (match ->
// reformat -> compress, bounded buffers) from 1 worker up to the configured
// pool size, reporting fleet throughput and the speedup over serial.
func runPipelineScenario(env *experiments.Env, maxWorkers int) error {
	comp, err := env.Compressor(100, 60)
	if err != nil {
		return err
	}
	m, err := mapmatch.New(env.DS.Graph, env.Tab, mapmatch.DefaultOptions())
	if err != nil {
		return err
	}
	var sweep []int
	for w := 1; w < maxWorkers; w *= 2 {
		sweep = append(sweep, w)
	}
	if len(sweep) == 0 || sweep[len(sweep)-1] != maxWorkers {
		sweep = append(sweep, maxWorkers)
	}
	fmt.Println("pipeline: streaming ingest throughput (match+reformat+compress)")
	fmt.Printf("%10s %12s %12s %10s %8s\n", "workers", "traj/s", "elapsed", "failed", "speedup")
	var serial float64
	for _, w := range sweep {
		t0 := time.Now()
		results, err := pipeline.Run(m, comp, env.DS.Raws, pipeline.Options{Workers: w})
		if err != nil {
			return err
		}
		elapsed := time.Since(t0)
		failed := 0
		for _, res := range results {
			if res.Err != nil {
				failed++
			}
		}
		rate := float64(len(results)) / elapsed.Seconds()
		if w == sweep[0] {
			serial = rate
		}
		fmt.Printf("%10d %12.0f %12v %10d %7.2fx\n",
			w, rate, elapsed.Round(time.Millisecond), failed, rate/serial)
	}
	fmt.Println()
	return nil
}

// runStoreBenchScenario measures sharded fleet-store append throughput at
// 1/2/4/8 shards: the fleet is compressed once, then each row appends the
// same record set (replicated to ~10k appends, distinct ids) with one
// appender goroutine per shard — the concurrency the sharded layout is
// built to absorb. The 1-shard row is the single-writer baseline; on
// multi-core hardware throughput should scale with the shard count until
// the disk, not the shard lock, is the bottleneck.
func runStoreBenchScenario(env *experiments.Env) error {
	comp, err := env.Compressor(100, 60)
	if err != nil {
		return err
	}
	cts, errs := comp.CompressBatch(env.DS.Truth, 0)
	var fleet []*core.Compressed
	for i, ct := range cts {
		if errs[i] == nil {
			fleet = append(fleet, ct)
		}
	}
	if len(fleet) == 0 {
		return fmt.Errorf("storebench: no compressible trajectories")
	}
	const targetAppends = 10000
	reps := (targetAppends + len(fleet) - 1) / len(fleet)
	total := reps * len(fleet)
	fmt.Println("storebench: sharded fleet-store append throughput (one tail per shard)")
	fmt.Printf("%10s %10s %12s %12s %8s\n", "shards", "appends", "traj/s", "elapsed", "speedup")
	var base float64
	for _, shards := range []int{1, 2, 4, 8} {
		dir, err := os.MkdirTemp("", "press-storebench")
		if err != nil {
			return err
		}
		st, err := store.CreateSharded(dir+"/fleet", shards)
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < shards; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= total {
						return
					}
					if err := st.Append(uint64(i), fleet[i%len(fleet)]); err != nil {
						panic(err) // bench-only: tmpfs append cannot fail in normal operation
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(t0)
		got := st.Len()
		st.Close()
		os.RemoveAll(dir)
		if got != total {
			return fmt.Errorf("storebench: %d shards stored %d of %d", shards, got, total)
		}
		rate := float64(total) / elapsed.Seconds()
		if shards == 1 {
			base = rate
		}
		fmt.Printf("%10d %10d %12.0f %12v %7.2fx\n",
			shards, total, rate, elapsed.Round(time.Millisecond), rate/base)
	}
	fmt.Println()
	return nil
}

// runStreamBenchScenario measures the live session-ingest path: w feeder
// goroutines ("workers") replay the fleet's ground-truth trajectories as
// per-vehicle point streams through a stream.Manager into a 4-shard store,
// flushing each vehicle at end of trip. Reported per worker count: mean
// per-point push latency (wall time × workers / points — the cost a feeder
// thread pays per point) and completed sessions/s. On multi-core hardware
// sessions/s should scale with feeders until the flush-time FST encoding,
// not session bookkeeping, dominates.
func runStreamBenchScenario(env *experiments.Env) error {
	comp, err := env.Compressor(100, 60)
	if err != nil {
		return err
	}
	feed := env.DS.Truth
	if len(feed) == 0 {
		return fmt.Errorf("streambench: no trajectories")
	}
	const targetSessions = 600
	reps := (targetSessions + len(feed) - 1) / len(feed)
	total := reps * len(feed)
	fmt.Println("streambench: live per-vehicle session ingest (online codec -> sharded store)")
	fmt.Printf("%10s %10s %10s %12s %12s %12s %8s\n",
		"workers", "sessions", "points", "ns/push", "points/s", "sessions/s", "speedup")
	var base float64
	for _, w := range []int{1, 2, 4, 8} {
		dir, err := os.MkdirTemp("", "press-streambench")
		if err != nil {
			return err
		}
		st, err := store.CreateSharded(dir+"/fleet", 4)
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		mgr, err := stream.NewManager(context.Background(), comp, st, stream.Options{})
		if err != nil {
			st.Close()
			os.RemoveAll(dir)
			return err
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		errc := make(chan error, w)
		t0 := time.Now()
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= total {
						return
					}
					id := uint64(i)
					tr := feed[i%len(feed)]
					err := tr.Replay(
						func(e roadnet.EdgeID) error { return mgr.PushEdge(id, e) },
						func(p traj.Entry) error { return mgr.PushSample(id, p) },
					)
					if err == nil {
						err = mgr.Flush(id)
					}
					if err != nil {
						errc <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(t0)
		points, sessions := mgr.Pushes(), mgr.Flushed()
		err = mgr.Close()
		st.Close()
		os.RemoveAll(dir)
		select {
		case ferr := <-errc:
			return fmt.Errorf("streambench: %d workers: %w", w, ferr)
		default:
		}
		if err != nil {
			return err
		}
		if int(sessions) != total {
			return fmt.Errorf("streambench: %d workers flushed %d of %d sessions", w, sessions, total)
		}
		rate := float64(sessions) / elapsed.Seconds()
		if w == 1 {
			base = rate
		}
		nsPerPush := float64(elapsed.Nanoseconds()) * float64(w) / float64(points)
		fmt.Printf("%10d %10d %10d %12.0f %12.0f %12.0f %7.2fx\n",
			w, sessions, points, nsPerPush,
			float64(points)/elapsed.Seconds(), rate, rate/base)
	}
	fmt.Println()
	return nil
}

// runSPBenchScenario is the table-vs-hierarchy scaling race: at 1x/4x/16x
// the default city (up to -spscale) it builds the full all-pairs table and
// the contraction hierarchy over the same graph, spot-checks that their
// answers are bit-identical, and reports precompute time, resident memory
// and lookup throughput side by side. The run FAILS — not merely reports —
// if any sampled answer differs, if the hierarchy ever builds slower than
// the table, or if at 16x the hierarchy misses its headline targets (>= 5x
// faster precompute, <= 10% of the table's memory): the O(|E|^2) barrier is
// an asserted property, not a narrative.
func runSPBenchScenario(workers, spscale int) error {
	// Lookup throughput: identical random probe sequences against both
	// sources (Dist + SPEnd per probe, the compression hot path).
	bench := func(sp spindex.SP, n, probes int) float64 {
		rng := rand.New(rand.NewSource(42))
		t0 := time.Now()
		var sink float64
		for i := 0; i < probes; i++ {
			a := roadnet.EdgeID(rng.Intn(n))
			b := roadnet.EdgeID(rng.Intn(n))
			sink += sp.Dist(a, b)
			sink += float64(sp.SPEnd(a, b))
		}
		_ = sink
		return float64(probes) / time.Since(t0).Seconds()
	}

	var scales []int
	for _, s := range []int{1, 4, 16} {
		if s <= spscale {
			scales = append(scales, s)
		}
	}
	if len(scales) == 0 {
		return fmt.Errorf("spbench: -spscale %d admits no scale from {1, 4, 16}", spscale)
	}
	fmt.Println("spbench: all-pairs table vs contraction hierarchy as the network grows")
	fmt.Printf("%6s %8s %12s %12s %8s %12s %12s %7s %12s %12s\n",
		"scale", "edges", "table-build", "hier-build", "speedup",
		"table-bytes", "hier-bytes", "mem%", "tbl-lkps/s", "hier-lkps/s")
	for _, scale := range scales {
		opt, err := gen.DefaultCity().Scale(scale)
		if err != nil {
			return err
		}
		sg, err := gen.City(opt)
		if err != nil {
			return err
		}
		n := sg.NumEdges()

		t0 := time.Now()
		stab := spindex.NewTable(sg)
		stab.PrecomputeAllParallel(workers)
		tableBuild := time.Since(t0)

		t0 = time.Now()
		h := spindex.NewHier(sg)
		hierBuild := time.Since(t0)

		// Bit-exact equality spot-check on a deterministic sample of pairs
		// before any number is reported: a fast wrong answer is worthless.
		rng := rand.New(rand.NewSource(7))
		for k := 0; k < 3000; k++ {
			a := roadnet.EdgeID(rng.Intn(n))
			b := roadnet.EdgeID(rng.Intn(n))
			if hd, td := h.Dist(a, b), stab.Dist(a, b); hd != td && !(math.IsInf(hd, 1) && math.IsInf(td, 1)) {
				return fmt.Errorf("spbench: scale %dx: Dist(%d,%d) hier %v != table %v", scale, a, b, hd, td)
			}
			if he, te := h.SPEnd(a, b), stab.SPEnd(a, b); he != te {
				return fmt.Errorf("spbench: scale %dx: SPEnd(%d,%d) hier %v != table %v", scale, a, b, he, te)
			}
		}

		probes := 200_000
		tblRate := bench(stab, n, probes)
		hierRate := bench(h, n, probes)
		tblBytes, hierBytes := stab.MemoryBytes(), h.MemoryBytes()
		memPct := 100 * float64(hierBytes) / float64(tblBytes)
		buildSpeedup := float64(tableBuild) / float64(hierBuild)
		fmt.Printf("%5dx %8d %12v %12v %7.1fx %12d %12d %6.2f%% %12.0f %12.0f\n",
			scale, n, tableBuild.Round(time.Millisecond), hierBuild.Round(time.Millisecond),
			buildSpeedup, tblBytes, hierBytes, memPct, tblRate, hierRate)

		if buildSpeedup <= 1 {
			return fmt.Errorf("spbench: scale %dx: hierarchy built slower than the table (%v vs %v)",
				scale, hierBuild, tableBuild)
		}
		if scale == 16 {
			if buildSpeedup < 5 {
				return fmt.Errorf("spbench: 16x: hier precompute speedup %.1fx, want >= 5x", buildSpeedup)
			}
			if float64(hierBytes) > 0.10*float64(tblBytes) {
				return fmt.Errorf("spbench: 16x: hier memory %d bytes is %.1f%% of the table's %d, want <= 10%%",
					hierBytes, memPct, tblBytes)
			}
		}
	}
	fmt.Println()
	return nil
}

// runSPBuildScenario exercises the PR 9 tentpole: the batched parallel
// contraction build and the CH hot-query path.
//
// Phase 1 (build-parallelism axis): at each network scale it builds the
// hierarchy at 1/2/4/8 workers, asserts every PRSP v2 serialization is
// byte-identical to the sequential build's — determinism is a hard gate at
// any core count — and reports wall-clock per worker count. The >= 2x
// speedup gate at workers=4 only arms on hardware with >= 4 CPUs; a 1-core
// CI box instead asserts identity plus no pathological slowdown from the
// round structure itself.
//
// Phase 2 (hot vs cold queries): the cold column is PR 8's query shape — a
// fresh hierarchy with the unpack cache disabled, every probe paying the
// full bidirectional search and recursive shortcut unpacking. The hot
// column repeats a skewed source set against a warmed default hierarchy:
// repeated sources cross the row-expansion threshold and the unpack cache
// absorbs the recursion, so steady state is array lookups at 0 allocs/op
// (the alloc half is gated by scripts/allocgate.sh; the >= 2x throughput
// gate is enforced here).
func runSPBuildScenario(spscale int) error {
	var scales []int
	for _, s := range []int{1, 4, 16} {
		if s <= spscale {
			scales = append(scales, s)
		}
	}
	if len(scales) == 0 {
		return fmt.Errorf("spbuild: -spscale %d admits no scale from {1, 4, 16}", spscale)
	}
	workerAxis := []int{1, 2, 4, 8}

	fmt.Println("spbuild: batched parallel contraction — build time by worker count")
	fmt.Printf("%6s %8s %10s", "scale", "edges", "shortcuts")
	for _, w := range workerAxis {
		fmt.Printf(" %10s", fmt.Sprintf("w=%d", w))
	}
	fmt.Printf(" %8s\n", "w4-spdup")

	type hotGraph struct {
		g     *roadnet.Graph
		scale int
	}
	var last hotGraph
	for _, scale := range scales {
		opt, err := gen.DefaultCity().Scale(scale)
		if err != nil {
			return err
		}
		sg, err := gen.City(opt)
		if err != nil {
			return err
		}
		last = hotGraph{g: sg, scale: scale}

		var ref []byte
		var seqBuild time.Duration
		times := make([]time.Duration, len(workerAxis))
		shortcuts := 0
		for i, w := range workerAxis {
			t0 := time.Now()
			h := spindex.NewHierWith(sg, spindex.HierOptions{BuildWorkers: w})
			times[i] = time.Since(t0)
			shortcuts = h.ShortcutCount()
			var buf bytes.Buffer
			if _, err := h.WriteSnapshot(&buf); err != nil {
				return err
			}
			if w == 1 {
				ref, seqBuild = buf.Bytes(), times[i]
				continue
			}
			if !bytes.Equal(ref, buf.Bytes()) {
				return fmt.Errorf("spbuild: scale %dx: workers=%d snapshot differs from the sequential build (%d vs %d bytes)",
					scale, w, buf.Len(), len(ref))
			}
		}
		w4 := times[2]
		speedup4 := float64(seqBuild) / float64(w4)
		fmt.Printf("%5dx %8d %10d", scale, sg.NumEdges(), shortcuts)
		for _, d := range times {
			fmt.Printf(" %10v", d.Round(time.Millisecond))
		}
		fmt.Printf(" %7.2fx\n", speedup4)

		if runtime.NumCPU() >= 4 {
			if speedup4 < 2 {
				return fmt.Errorf("spbuild: scale %dx: workers=4 build speedup %.2fx on %d CPUs, want >= 2x",
					scale, speedup4, runtime.NumCPU())
			}
		} else if float64(w4) > 2.5*float64(seqBuild) {
			// Single-core boxes cannot speed up, but the round/batch
			// structure must not cost multiples of the sequential build.
			return fmt.Errorf("spbuild: scale %dx: workers=4 build took %v vs sequential %v on %d CPU(s)",
				scale, w4, seqBuild, runtime.NumCPU())
		}
	}

	// Phase 2 on the largest graph built above.
	sg := last.g
	n := sg.NumEdges()
	const (
		hotSources = 8
		probes     = 120_000
	)
	probe := func(h *spindex.Hier, srcOf func(i int) roadnet.EdgeID) float64 {
		rng := rand.New(rand.NewSource(99))
		t0 := time.Now()
		var sink float64
		for i := 0; i < probes; i++ {
			a := srcOf(i)
			b := roadnet.EdgeID(rng.Intn(n))
			sink += h.Dist(a, b)
			sink += h.GapDist(a, b)
		}
		_ = sink
		return float64(probes) / time.Since(t0).Seconds()
	}

	cold := spindex.NewHierWith(sg, spindex.HierOptions{UnpackCacheEntries: -1})
	rngSrc := rand.New(rand.NewSource(5))
	coldSrcs := make([]roadnet.EdgeID, probes)
	for i := range coldSrcs {
		coldSrcs[i] = roadnet.EdgeID(rngSrc.Intn(n))
	}
	coldRate := probe(cold, func(i int) roadnet.EdgeID { return coldSrcs[i] })

	hot := spindex.NewHierWith(sg, spindex.HierOptions{})
	srcs := make([]roadnet.EdgeID, hotSources)
	for i := range srcs {
		srcs[i] = roadnet.EdgeID((i * 37) % n)
		// Three SPEnd touches per source cross the row-expansion threshold,
		// so the hot set is served from exact rows.
		for k := 0; k < 3; k++ {
			hot.SPEnd(srcs[i], roadnet.EdgeID((i+k+1)%n))
		}
	}
	hotRate := probe(hot, func(i int) roadnet.EdgeID { return srcs[i%hotSources] })
	ratio := hotRate / coldRate

	fmt.Println("\nspbuild: hot (warmed rows + unpack cache) vs cold (PR 8 shape) query throughput")
	fmt.Printf("%-28s %14s\n", "path", "queries/s")
	fmt.Printf("%-28s %14.0f   (no caches, fresh searches)\n", "cold: bidirectional CH", coldRate)
	fmt.Printf("%-28s %14.0f   (%d skewed sources)\n", "hot: rows + unpack cache", hotRate, hotSources)
	fmt.Printf("hot/cold ratio: %.2fx\n\n", ratio)
	if ratio < 2 {
		return fmt.Errorf("spbuild: hot query throughput %.2fx of cold at scale %dx, want >= 2x", ratio, last.scale)
	}
	return nil
}

// bootMappedHier boots the SP source exactly like pressd -init: build the
// contraction hierarchy, save its snapshot under dir, map it back.
func bootMappedHier(g *roadnet.Graph, dir string, workers int) (*spindex.Hier, error) {
	path := filepath.Join(dir, "sp.snap")
	if err := spindex.NewHierWith(g, spindex.HierOptions{BuildWorkers: workers}).SaveSnapshot(path); err != nil {
		return nil, err
	}
	return spindex.OpenHierMapped(path, g)
}

// runServerBenchScenario measures the pressd serving layer end to end over
// loopback HTTP. Phase 1 races the ingest protocols: the environment's
// fleet is streamed three times over fresh stores — chunked JSON (the debug
// surface), the same chunking as binary wire frames (isolating the codec),
// and bulk multi-vehicle binary frames (the protocol's intended shape) —
// and the points/s multiple of binary over JSON is reported. Phase 2 then
// has 1/2/4/8 concurrent clients hammer GET /v1/whereat against the
// bulk-fed store. The server boots the way pressd does — engine and
// compressor over a memory-mapped hierarchy snapshot (no build at open) — so
// the numbers include the full daemon stack: HTTP parsing, the concurrency
// bound, session/store access and response encoding. On multi-core hardware
// requests/s should scale with clients until the query engine, not the
// transport, saturates.
func runServerBenchScenario(env *experiments.Env, workers int) error {
	g := env.DS.Graph

	dir, err := os.MkdirTemp("", "press-serverbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	h, err := bootMappedHier(g, dir, workers)
	if err != nil {
		return err
	}
	defer h.Close()
	comp, err := core.NewCompressor(g, h, env.CB, 100, 60)
	if err != nil {
		return err
	}
	eng, err := query.NewEngine(g, h, env.CB)
	if err != nil {
		return err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}

	// newServer spins a fresh store + serving stack over the shared engine
	// and compressor — one per ingest variant, so the protocols compete on
	// identical empty stores.
	newServer := func(tag string) (*store.ShardedStore, *server.Server, string, error) {
		st, err := store.CreateSharded(filepath.Join(dir, "fleet-"+tag), 4)
		if err != nil {
			return nil, nil, "", err
		}
		srv, err := server.New(context.Background(), server.Config{
			Engine: eng, Compressor: comp, Store: st,
		})
		if err != nil {
			st.Close()
			return nil, nil, "", err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			st.Close()
			return nil, nil, "", err
		}
		go srv.Serve(ln)
		return st, srv, "http://" + ln.Addr().String(), nil
	}
	post := func(url, contentType string, body []byte) error {
		resp, err := client.Post(url, contentType, bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: HTTP %d", url, resp.StatusCode)
		}
		return nil
	}

	// Wire types (mirroring internal/server's JSON protocol).
	type sampleMsg struct {
		D float64 `json:"d"`
		T float64 `json:"t"`
	}
	type pointMsg struct {
		Edge   *int64     `json:"edge,omitempty"`
		Sample *sampleMsg `json:"sample,omitempty"`
	}

	// Phase 1: HTTP ingest of the whole fleet, three protocol variants over
	// the same observation streams. json/chunk64 is the debug surface as a
	// live feed (64-point JSON chunks, one request each); wire/chunk64 sends
	// the identical request shape as binary frames, isolating the codec
	// delta; wire/bulk batches 8 vehicles' whole trips per frame on the bulk
	// endpoint — the protocol's intended shape.
	feed := env.DS.Truth
	if len(feed) == 0 {
		return fmt.Errorf("serverbench: no trajectories")
	}
	jsonPts := make([][]pointMsg, len(feed))
	obsPts := make([][]wire.Obs, len(feed))
	var totalPoints int
	for i, tr := range feed {
		_ = tr.Replay(
			func(e roadnet.EdgeID) error {
				v := int64(e)
				jsonPts[i] = append(jsonPts[i], pointMsg{Edge: &v})
				obsPts[i] = append(obsPts[i], wire.Obs{Edge: e})
				return nil
			},
			func(p traj.Entry) error {
				jsonPts[i] = append(jsonPts[i], pointMsg{Sample: &sampleMsg{D: p.D, T: p.T}})
				obsPts[i] = append(obsPts[i], wire.Obs{Edge: roadnet.NoEdge, Sample: p, HasSample: true})
				return nil
			},
		)
		totalPoints += len(jsonPts[i])
	}

	const chunk = 64
	ingestJSON := func(base string) error {
		for i := range feed {
			pts := jsonPts[i]
			for len(pts) > 0 {
				n := min(chunk, len(pts))
				body, _ := json.Marshal(map[string]any{"points": pts[:n], "flush": len(pts) == n})
				if err := post(fmt.Sprintf("%s/v1/ingest/%d", base, i), "application/json", body); err != nil {
					return err
				}
				pts = pts[n:]
			}
		}
		return nil
	}
	var enc wire.Encoder
	ingestWireChunked := func(base string) error {
		for i := range feed {
			obs := obsPts[i]
			for len(obs) > 0 {
				n := min(chunk, len(obs))
				enc.Reset()
				enc.StartGroup(uint64(i), len(obs) == n)
				for _, o := range obs[:n] {
					enc.Obs(o)
				}
				if err := post(fmt.Sprintf("%s/v1/ingest/%d", base, i), wire.ContentType, enc.Finish()); err != nil {
					return err
				}
				obs = obs[n:]
			}
		}
		return nil
	}
	ingestWireBulk := func(base string) error {
		enc.Reset()
		for i := range feed {
			enc.StartGroup(uint64(i), true)
			for _, o := range obsPts[i] {
				enc.Obs(o)
			}
			if (i+1)%8 == 0 || i == len(feed)-1 {
				if err := post(base+"/v1/ingest", wire.ContentType, enc.Finish()); err != nil {
					return err
				}
				enc.Reset()
			}
		}
		return nil
	}

	variants := []struct {
		name string
		run  func(base string) error
	}{
		{"json/chunk64", ingestJSON},
		{"wire/chunk64", ingestWireChunked},
		{"wire/bulk", ingestWireBulk},
	}
	fmt.Println("serverbench: pressd HTTP serving layer over loopback (snapshot-booted)")
	fmt.Printf("ingest: %d vehicles, %d points per variant\n", len(feed), totalPoints)
	fmt.Printf("%14s %12s %12s %8s\n", "protocol", "points/s", "elapsed", "vs json")
	var st *store.ShardedStore
	var srv *server.Server
	var base string
	var jsonRate, bulkRate float64
	for vi, v := range variants {
		vst, vsrv, vbase, err := newServer(fmt.Sprintf("v%d", vi))
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := v.run(vbase); err != nil {
			return fmt.Errorf("serverbench: %s: %w", v.name, err)
		}
		elapsed := time.Since(t0)
		if vst.Len() != len(feed) {
			return fmt.Errorf("serverbench: %s: store holds %d of %d trajectories", v.name, vst.Len(), len(feed))
		}
		rate := float64(totalPoints) / elapsed.Seconds()
		switch vi {
		case 0:
			jsonRate = rate
		case len(variants) - 1:
			bulkRate = rate
		}
		fmt.Printf("%14s %12.0f %12v %7.2fx\n", v.name, rate,
			elapsed.Round(time.Millisecond), rate/jsonRate)
		if vi == len(variants)-1 {
			st, srv, base = vst, vsrv, vbase // queries run over the bulk-fed store
		} else {
			vsrv.Close()
			vst.Close()
		}
	}
	defer srv.Close()
	defer st.Close()
	fmt.Printf("binary bulk ingest vs JSON: %.2fx points/s\n", bulkRate/jsonRate)

	// Phase 2: whereat requests/s at 1/2/4/8 concurrent clients. Each
	// request targets a stored vehicle at a pseudo-random time inside its
	// trip; the schedule is deterministic per request index.
	span := make([][2]float64, len(feed))
	for i, tr := range feed {
		span[i] = [2]float64{tr.Temporal[0].T, tr.Temporal[len(tr.Temporal)-1].T}
	}
	const requests = 4000
	fmt.Printf("%10s %10s %12s %12s %12s %8s\n",
		"clients", "requests", "req/s", "mean", "elapsed", "speedup")
	var base1 float64
	for _, c := range []int{1, 2, 4, 8} {
		var next atomic.Int64
		var wg sync.WaitGroup
		errc := make(chan error, c)
		t0 := time.Now()
		for k := 0; k < c; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= requests {
						return
					}
					v := i % len(feed)
					frac := float64((i*2654435761)%1000) / 1000
					t := span[v][0] + frac*(span[v][1]-span[v][0])
					resp, err := client.Get(fmt.Sprintf("%s/v1/whereat?id=%d&t=%g", base, v, t))
					if err != nil {
						errc <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errc <- fmt.Errorf("whereat %d: HTTP %d", v, resp.StatusCode)
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(t0)
		select {
		case err := <-errc:
			return fmt.Errorf("serverbench: %d clients: %w", c, err)
		default:
		}
		rate := float64(requests) / elapsed.Seconds()
		if c == 1 {
			base1 = rate
		}
		fmt.Printf("%10d %10d %12.0f %12v %12v %7.2fx\n",
			c, requests, rate,
			(elapsed / requests * time.Duration(c)).Round(time.Microsecond),
			elapsed.Round(time.Millisecond), rate/base1)
	}
	fmt.Println()
	return nil
}

// runQueryBenchScenario measures the compressed-domain query engine as
// stored history grows: the fleet is replicated at 1x/10x/100x with each
// replica batch shifted into its own past time epoch, while the fleet-range
// query window stays fixed over the newest epoch. With the incremental
// index + bounding summaries the p50 must stay roughly flat (old epochs are
// pruned by time before any payload work) — the protocol EXPERIMENTS.md
// documents. The run fails if the /v1/stats counters show a full STR
// rebuild, zero summary rejections, or zero in-place index updates.
func runQueryBenchScenario(env *experiments.Env, workers int) error {
	g := env.DS.Graph
	dir, err := os.MkdirTemp("", "press-querybench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	h, err := bootMappedHier(g, dir, workers)
	if err != nil {
		return err
	}
	defer h.Close()
	comp, err := core.NewCompressor(g, h, env.CB, 100, 60)
	if err != nil {
		return err
	}
	eng, err := query.NewEngine(g, h, env.CB)
	if err != nil {
		return err
	}
	st, err := store.CreateSharded(filepath.Join(dir, "fleet"), 4)
	if err != nil {
		return err
	}
	defer st.Close()
	srv, err := server.New(context.Background(), server.Config{
		Engine: eng, Compressor: comp, Store: st,
		Options: server.Options{IncrementalIndex: true},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}

	cts, err := comp.CompressAll(env.DS.Truth)
	if err != nil {
		return err
	}
	var maxT float64
	for _, ct := range cts {
		if n := len(ct.Temporal); n > 0 && ct.Temporal[n-1].T > maxT {
			maxT = ct.Temporal[n-1].T
		}
	}
	epoch := maxT + 1000 // each replica batch lives in its own time epoch

	// shifted clones ct into a past epoch: same spatial payload, temporal
	// sequence and summary translated by -off seconds.
	shifted := func(ct *core.Compressed, off float64) *core.Compressed {
		temporal := make(traj.Temporal, len(ct.Temporal))
		for i, e := range ct.Temporal {
			temporal[i] = traj.Entry{D: e.D, T: e.T - off}
		}
		out := &core.Compressed{Spatial: ct.Spatial, Temporal: temporal}
		if ct.Summary != nil {
			sum := *ct.Summary
			sum.T0 -= off
			sum.T1 -= off
			out.Summary = &sum
		}
		return out
	}

	// Fixed query schedule over the newest epoch (offset 0): deterministic
	// pseudo-random rectangles + time windows, identical at every scale.
	world := g.MBR()
	queryURL := func(q int) string {
		h := uint64(q)*2654435761 + 12345
		fx := float64(h%1000) / 1000
		fy := float64((h/1000)%1000) / 1000
		cx := world.MinX + fx*(world.MaxX-world.MinX)
		cy := world.MinY + fy*(world.MaxY-world.MinY)
		half := 150 + float64(h%7)*50
		t1 := float64(h%800) * maxT / 800
		return fmt.Sprintf("%s/v1/range?t1=%f&t2=%f&xmin=%f&ymin=%f&xmax=%f&ymax=%f",
			base, t1, t1+maxT/4, cx-half, cy-half, cx+half, cy+half)
	}

	type indexCounters struct {
		Index struct {
			Mode        string `json:"mode"`
			Rebuilds    uint64 `json:"rebuilds"`
			Applied     uint64 `json:"applied"`
			Incremental *struct {
				Upserts        uint64 `json:"upserts"`
				Refreshes      uint64 `json:"refreshes"`
				SummaryRejects uint64 `json:"summary_rejects"`
				BucketsSkipped uint64 `json:"buckets_skipped"`
				Verifies       uint64 `json:"verifies"`
			} `json:"incremental"`
		} `json:"index"`
		Query struct {
			Cache struct {
				Hits uint64 `json:"hits"`
			} `json:"cache"`
		} `json:"query"`
	}
	getStats := func() (indexCounters, error) {
		var out indexCounters
		resp, err := client.Get(base + "/v1/stats")
		if err != nil {
			return out, err
		}
		defer resp.Body.Close()
		return out, json.NewDecoder(resp.Body).Decode(&out)
	}

	fmt.Println("querybench: fleet-range latency vs stored history (incremental index + summaries)")
	fmt.Printf("fleet %d vehicles/epoch; fixed query window over the newest epoch\n", len(cts))
	fmt.Printf("%8s %9s %10s %10s %10s %12s %12s %10s\n",
		"scale", "records", "p50", "p90", "rebuilds", "sumrejects", "bucketskip", "verifies")

	const queries = 300
	appended := 0
	p50s := make(map[int]time.Duration)
	var last indexCounters
	for _, scale := range []int{1, 10, 100} {
		for ; appended < scale; appended++ {
			off := float64(appended) * epoch
			for j, ct := range cts {
				id := uint64(appended*len(cts) + j)
				rec := ct
				if appended > 0 {
					rec = shifted(ct, off)
				}
				if err := st.Append(id, rec); err != nil {
					return err
				}
			}
		}
		// One warm-up pass absorbs the post-append metadata refresh, so the
		// measured pass sees steady state at this scale.
		for q := 0; q < 20; q++ {
			resp, err := client.Get(queryURL(q))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		durs := make([]time.Duration, 0, queries)
		for q := 0; q < queries; q++ {
			t0 := time.Now()
			resp, err := client.Get(queryURL(q))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("querybench: fleet range: HTTP %d", resp.StatusCode)
			}
			durs = append(durs, time.Since(t0))
		}
		sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
		p50s[scale] = durs[len(durs)/2]
		last, err = getStats()
		if err != nil {
			return err
		}
		inc := last.Index.Incremental
		if inc == nil {
			return fmt.Errorf("querybench: incremental counters missing from /v1/stats")
		}
		fmt.Printf("%7dx %9d %10v %10v %10d %12d %12d %10d\n",
			scale, st.Len(), p50s[scale].Round(time.Microsecond),
			durs[len(durs)*9/10].Round(time.Microsecond),
			last.Index.Rebuilds, inc.SummaryRejects, inc.BucketsSkipped, inc.Verifies)
	}

	// In-place maintenance: a live HTTP ingest+flush must land in the index
	// as an upsert (no scan, no rebuild).
	before := last.Index.Applied
	liveID := appended*len(cts) + 1
	edge0 := int64(env.DS.Truth[0].Path[0])
	body, _ := json.Marshal(map[string]any{
		"points": []map[string]any{
			{"edge": edge0},
			{"sample": map[string]float64{"d": 0, "t": 1}},
			{"sample": map[string]float64{"d": 1, "t": 2}},
		},
		"flush": true,
	})
	resp, err := client.Post(fmt.Sprintf("%s/v1/ingest/%d", base, liveID), "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("querybench: live ingest: HTTP %d", resp.StatusCode)
	}
	last, err = getStats()
	if err != nil {
		return err
	}

	ratio := float64(p50s[100]) / float64(p50s[1])
	fmt.Printf("\np50 growth 1x -> 100x: %.2fx (flat-latency target: <= 2x)\n", ratio)
	switch {
	case last.Index.Rebuilds != 0:
		return fmt.Errorf("querybench: %d full STR rebuilds in incremental mode", last.Index.Rebuilds)
	case last.Index.Incremental.SummaryRejects == 0:
		return fmt.Errorf("querybench: summaries never rejected a candidate")
	case last.Index.Applied != before+1:
		return fmt.Errorf("querybench: live flush not applied in place (applied %d -> %d)",
			before, last.Index.Applied)
	}
	fmt.Printf("counters: rebuilds=0, summary_rejects=%d, buckets_skipped=%d, in-place updates=%d, cache hits=%d\n",
		last.Index.Incremental.SummaryRejects, last.Index.Incremental.BucketsSkipped,
		last.Index.Applied, last.Query.Cache.Hits)
	fmt.Println()
	return nil
}

// runClusterBenchScenario races the partitioned fleet tier at 1/2/4 nodes,
// every row through the scatter-gather router (so the 1-node row carries
// the same routing overhead and the deltas isolate partitioning). All nodes
// share one memory-mapped SP snapshot — the deployment the cluster tier is
// designed around: per-node work is O(fleet/N) while the expensive
// read-only state is paid for once via the page cache.
//
// Phase 1 replays a replicated fleet as bulk binary wire bodies through the
// router with a fixed client pool; the router splits each frame per owner
// and the nodes compress their partitions concurrently, so points/s should
// scale with the node count on multi-core hardware (flush-time FST encoding
// is the dominant per-session cost). Phase 2 hammers GET /v1/whereat
// through the router at the same client count. Numbers on a single-core CI
// box are honest: rows still verify correctness (every session lands on
// exactly its owner, counts sum across partitions) but show no speedup.
func runClusterBenchScenario(env *experiments.Env, workers int) error {
	g := env.DS.Graph

	dir, err := os.MkdirTemp("", "press-clusterbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	h, err := bootMappedHier(g, dir, workers)
	if err != nil {
		return err
	}
	defer h.Close()
	comp, err := core.NewCompressor(g, h, env.CB, 100, 60)
	if err != nil {
		return err
	}
	eng, err := query.NewEngine(g, h, env.CB)
	if err != nil {
		return err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 32}}

	// Pre-encode the workload once: the fleet replicated to ~targetSessions
	// distinct vehicle ids, eight whole trips per bulk body. Identical ids
	// and bytes at every node count.
	feed := env.DS.Truth
	if len(feed) == 0 {
		return fmt.Errorf("clusterbench: no trajectories")
	}
	const targetSessions = 320
	reps := (targetSessions + len(feed) - 1) / len(feed)
	total := reps * len(feed)
	var enc wire.Encoder
	var bodies [][]byte
	totalPoints := 0
	for i := 0; i < total; i++ {
		tr := feed[i%len(feed)]
		enc.StartGroup(uint64(i), true)
		_ = tr.Replay(
			func(e roadnet.EdgeID) error { enc.Edge(e); totalPoints++; return nil },
			func(p traj.Entry) error { enc.Sample(p); totalPoints++; return nil },
		)
		if (i+1)%8 == 0 || i == total-1 {
			bodies = append(bodies, append([]byte(nil), enc.Finish()...))
			enc.Reset()
		}
	}
	span := make([][2]float64, len(feed))
	for i, tr := range feed {
		span[i] = [2]float64{tr.Temporal[0].T, tr.Temporal[len(tr.Temporal)-1].T}
	}

	clients := 8
	const queries = 3000
	fmt.Println("clusterbench: partitioned fleet through the scatter-gather router (shared SP snapshot)")
	fmt.Printf("ingest: %d sessions, %d points; queries: %d whereat; %d clients per row\n",
		total, totalPoints, queries, clients)
	fmt.Printf("%8s %12s %12s %8s %12s %12s %8s\n",
		"nodes", "ingest pt/s", "elapsed", "speedup", "whereat r/s", "elapsed", "speedup")
	var ingestBase, queryBase float64
	for _, n := range []int{1, 2, 4} {
		stores := make([]*store.ShardedStore, n)
		servers := make([]*server.Server, n)
		addrs := make([]string, n)
		for k := 0; k < n; k++ {
			st, err := store.CreateSharded(filepath.Join(dir, fmt.Sprintf("fleet-%d-%d", n, k)), 4)
			if err != nil {
				return err
			}
			srv, err := server.New(context.Background(), server.Config{
				Engine: eng, Compressor: comp, Store: st,
				Options: server.Options{Cluster: server.ClusterOptions{Nodes: n, NodeIndex: k}},
			})
			if err != nil {
				return err
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			go srv.Serve(ln)
			stores[k], servers[k], addrs[k] = st, srv, "http://"+ln.Addr().String()
		}
		topo, err := cluster.NewTopology(addrs)
		if err != nil {
			return err
		}
		rt, err := cluster.NewRouter(topo, cluster.Options{ProbeEvery: -1, Client: client})
		if err != nil {
			return err
		}
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go rt.Serve(rln)
		base := "http://" + rln.Addr().String()

		run := func(jobs int, do func(i int) error) (time.Duration, error) {
			var next atomic.Int64
			var wg sync.WaitGroup
			errc := make(chan error, clients)
			t0 := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= jobs {
							return
						}
						if err := do(i); err != nil {
							errc <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			select {
			case err := <-errc:
				return 0, err
			default:
			}
			return time.Since(t0), nil
		}

		ingestElapsed, err := run(len(bodies), func(i int) error {
			resp, err := client.Post(base+"/v1/ingest", wire.ContentType, bytes.NewReader(bodies[i]))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("bulk ingest: HTTP %d", resp.StatusCode)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("clusterbench: %d nodes: %w", n, err)
		}
		// Every session must have landed on exactly its owner.
		stored := 0
		for k, st := range stores {
			stored += st.Len()
			for i := 0; i < total; i++ {
				if store.ShardOf(uint64(i), n) == k {
					if _, err := st.Get(uint64(i)); err != nil {
						return fmt.Errorf("clusterbench: %d nodes: vehicle %d missing from owner %d", n, i, k)
					}
				}
			}
		}
		if stored != total {
			return fmt.Errorf("clusterbench: %d nodes stored %d of %d sessions", n, stored, total)
		}

		queryElapsed, err := run(queries, func(i int) error {
			v := i % total
			s := span[v%len(feed)]
			frac := float64((i*2654435761)%1000) / 1000
			t := s[0] + frac*(s[1]-s[0])
			resp, err := client.Get(fmt.Sprintf("%s/v1/whereat?id=%d&t=%g", base, v, t))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("whereat %d: HTTP %d", v, resp.StatusCode)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("clusterbench: %d nodes: %w", n, err)
		}

		rt.Close()
		for k := 0; k < n; k++ {
			servers[k].Close()
			stores[k].Close()
		}

		ingestRate := float64(totalPoints) / ingestElapsed.Seconds()
		queryRate := float64(queries) / queryElapsed.Seconds()
		if n == 1 {
			ingestBase, queryBase = ingestRate, queryRate
		}
		fmt.Printf("%8d %12.0f %12v %7.2fx %12.0f %12v %7.2fx\n",
			n, ingestRate, ingestElapsed.Round(time.Millisecond), ingestRate/ingestBase,
			queryRate, queryElapsed.Round(time.Millisecond), queryRate/queryBase)
	}
	fmt.Println()
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pressbench:", err)
	os.Exit(1)
}
