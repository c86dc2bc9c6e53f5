// Parallel ingest: the "Paralleled" in PRESS, end to end.
//
//	go run ./examples/parallel
//
// Generates a synthetic fleet, trains the system, then ingests the raw GPS
// feed twice — serially and through the streaming pipeline (match ->
// reformat -> HSC+BTC compress -> fleet store) — and compares throughput. One deliberately broken trajectory
// demonstrates per-item failure reporting: it fails alone, the rest of the
// fleet flows through.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"press"
)

func main() {
	workers := runtime.GOMAXPROCS(0)

	// 1. A synthetic city and taxi fleet stand in for a real network + feed.
	ds, err := press.GenerateDataset(press.DefaultDatasetOptions(120))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("city: %d intersections, %d road segments; fleet: %d trajectories\n",
		ds.Graph.NumVertices(), ds.Graph.NumEdges(), len(ds.Raws))

	// 2. Assemble the system: codebook training only, since shortest paths
	// need no preprocessing.
	cfg := press.DefaultConfig()
	cfg.TSND, cfg.NSTD = 50, 30
	t0 := time.Now()
	sys, err := press.NewSystem(ds.Graph, ds.Trips[:60], cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("system ready in %v\n", time.Since(t0).Round(time.Millisecond))

	// 3. A feed with one poison item: per-item errors must not sink the batch.
	feed := append([]press.RawTrajectory{}, ds.Raws...)
	feed[7] = press.RawTrajectory{} // unmatchable

	// Serial reference.
	t0 = time.Now()
	okSerial := 0
	for _, raw := range feed {
		if _, err := sys.CompressGPS(raw); err == nil {
			okSerial++
		}
	}
	serial := time.Since(t0)
	fmt.Printf("serial ingest:   %4d ok in %v\n", okSerial, serial.Round(time.Millisecond))

	// 4. The streaming pipeline into a fleet store. Results come back in
	// submission order, and each record is stored under its submission
	// index as trajectory id.
	dir, err := os.MkdirTemp("", "press-parallel")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := sys.NewFleetStore(dir + "/fleet")
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	t0 = time.Now()
	results, err := sys.IngestGPSToShardedStore(st, feed, workers)
	if err != nil {
		log.Fatal(err)
	}
	parallel := time.Since(t0)
	okPar := 0
	for i, res := range results {
		if res.Err != nil {
			fmt.Printf("  item %d failed alone: %v\n", i, res.Err)
			continue
		}
		okPar++ // stored under its submission index: st.Get(uint64(i))
	}
	fmt.Printf("parallel ingest: %4d ok in %v on %d workers (%.2fx, %d stored)\n",
		okPar, parallel.Round(time.Millisecond), workers,
		serial.Seconds()/parallel.Seconds(), st.Len())

	// 5. The streaming API proper: submit while consuming, bounded memory.
	p, err := sys.NewPipeline(press.PipelineOptions{Workers: workers, Buffer: 4})
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		ctx := context.Background()
		for _, raw := range ds.Raws[:20] {
			if _, err := p.Submit(ctx, raw); err != nil { // blocks when saturated
				log.Fatal(err)
			}
		}
		p.Close()
	}()
	var rawBytes, compBytes int
	for res := range p.Results() {
		if res.Err != nil {
			continue
		}
		rawBytes += res.Raw.SizeBytes()
		compBytes += res.Compressed.SizeBytes()
	}
	fmt.Printf("streamed 20 trajectories: %d -> %d bytes (ratio %.2f)\n",
		rawBytes, compBytes, float64(rawBytes)/float64(compBytes))
}
