// Shortest-path snapshot: build the contraction hierarchy once, then serve
// it from a read-only memory-mapped file.
//
//	go run ./examples/spsnapshot
//
// The paper's preprocessing materializes an all-pairs shortest-path table —
// quadratic memory and |E| Dijkstra runs. PRESS here builds a contraction
// hierarchy over the same line graph instead: O(|E| + shortcuts) memory and
// answers bit-identical to the table's (same distances, same canonical
// tie-breaking), so compression output and query answers don't change by a
// byte. First boot builds the hierarchy and writes it as a snapshot file.
// Second boot — simulating a restart, or any of N serving processes on the
// same host — memory-maps the snapshot instead: no build, the bytes live in
// the page cache shared across processes, and every output is byte-for-byte
// the one the heap hierarchy produced.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"press"
)

func main() {
	ds, err := press.GenerateDataset(press.DefaultDatasetOptions(60))
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "press-spsnapshot")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := press.DefaultConfig()
	cfg.TSND, cfg.NSTD = 50, 30
	// The batched contraction build parallelizes across SPBuildWorkers and
	// stays byte-identical at every worker count (0 = GOMAXPROCS).
	cfg.SPBuildWorkers = 4
	cfg.SPSnapshotPath = filepath.Join(dir, "sp.snap")

	// 1. First boot: snapshot missing -> build the hierarchy, write the file.
	t0 := time.Now()
	first, err := press.NewSystem(ds.Graph, ds.Trips[:30], cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer first.Close()
	coldBoot := time.Since(t0)
	fi, err := os.Stat(cfg.SPSnapshotPath)
	if err != nil {
		log.Fatal(err)
	}
	n := ds.Graph.NumEdges()
	stats := first.SPStats()
	fmt.Printf("cold boot: %v (kind=%s, %d heap bytes; the all-pairs table would hold ~%d; wrote %d-byte snapshot)\n",
		coldBoot.Round(time.Millisecond), stats.Kind, stats.HeapBytes, 12*n*n, fi.Size())

	// 2. Second boot: same config, snapshot present -> memory-mapped.
	t0 = time.Now()
	second, err := press.NewSystem(ds.Graph, ds.Trips[:30], cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer second.Close()
	stats = second.SPStats()
	fmt.Printf("warm boot: %v (mapped=%v, %d mapped bytes — no build)\n",
		time.Since(t0).Round(time.Millisecond), stats.Mapped, stats.MappedBytes)

	// 3. Byte-identity: the same fleet compresses to the same bytes on both.
	identical, compressed := 0, 0
	var sample *press.Compressed
	for _, raw := range ds.Raws {
		ctA, errA := first.CompressGPS(raw)
		ctB, errB := second.CompressGPS(raw)
		if errA != nil || errB != nil {
			continue
		}
		compressed++
		if bytes.Equal(ctA.Marshal(), ctB.Marshal()) {
			identical++
			sample = ctB
		}
	}
	fmt.Printf("compressed %d trajectories; %d byte-identical between heap and mapped hierarchy\n",
		compressed, identical)

	// 4. Queries run straight off the mapping too.
	if sample != nil {
		mid := (sample.Temporal[0].T + sample.Temporal[len(sample.Temporal)-1].T) / 2
		pA, _ := first.WhereAt(sample, mid)
		pB, _ := second.WhereAt(sample, mid)
		fmt.Printf("whereat(t=%.0fs): heap (%.1f, %.1f) vs mapped (%.1f, %.1f)\n",
			mid, pA.X, pA.Y, pB.X, pB.Y)
	}

	// 5. NewSystemFromSnapshot is the strict form for serving processes (the
	// one pressd boots through): a missing or mismatched snapshot is an
	// error, never a silent rebuild.
	strict, err := press.NewSystemFromSnapshot(ds.Graph, ds.Trips[:30], cfg.SPSnapshotPath, press.Config{TSND: 50, NSTD: 30})
	if err != nil {
		log.Fatal(err)
	}
	defer strict.Close()
	fmt.Printf("strict reopen: mapped=%v (%d bytes shared via the page cache)\n",
		strict.SPStats().Mapped, strict.SPStats().MappedBytes)
}
