// Online compression: PRESS as a streaming compressor (§7.2: "the
// compression procedure scans the spatial path and temporal sequence from
// head to tail without tracing back... PRESS can be adapted to online
// compression").
//
// A simulated vehicle reports its position live; the spatial stream is
// SP-compressed and the temporal stream BTC-compressed on the fly, each
// point decided the moment its window closes — no buffering of the whole
// trajectory. The streaming compressors are the only implementation of
// the two algorithms (core.SPCompress and core.BTC run them to the end).
// The example verifies that every streamed path decompresses back to the
// vehicle's exact path and that the temporal error bounds hold.
//
//	go run ./examples/online
package main

import (
	"fmt"
	"log"

	"press"
	"press/internal/core"
	"press/internal/spindex"
)

func main() {
	ds, err := press.GenerateDataset(press.DefaultDatasetOptions(20))
	if err != nil {
		log.Fatal(err)
	}
	sp := spindex.NewHier(ds.Graph)

	const tau, eta = 50.0, 30.0 // TSND meters, NSTD seconds

	// Stream every trajectory through the online compressors.
	var inEdges, outEdges, inTuples, outTuples int
	osp := core.NewOnlineSP(sp)
	btc := core.NewOnlineBTC(tau, eta)
	for i, tr := range ds.Truth {
		for _, e := range tr.Path {
			osp.Push(e) // one call per road segment the vehicle enters
		}
		spOut := osp.Flush() // also readies osp for the next trajectory

		for _, p := range tr.Temporal {
			btc.Push(p) // one call per GPS fix
		}
		btcOut := btc.Flush()

		// The spatial stream is lossless...
		back, err := core.SPDecompress(sp, spOut)
		if err != nil {
			log.Fatalf("trajectory %d: %v", i, err)
		}
		if !back.Equal(tr.Path) {
			log.Fatalf("trajectory %d: decompressed path differs from the original", i)
		}
		// ...and the hard error bounds hold on the live temporal stream.
		if v := core.TSND(tr.Temporal, btcOut); v > tau+1e-6 {
			log.Fatalf("trajectory %d: TSND %v exceeds %v", i, v, tau)
		}
		if v := core.NSTD(tr.Temporal, btcOut); v > eta+1e-6 {
			log.Fatalf("trajectory %d: NSTD %v exceeds %v", i, v, eta)
		}
		inEdges += len(tr.Path)
		outEdges += len(spOut)
		inTuples += len(tr.Temporal)
		outTuples += len(btcOut)
	}
	fmt.Printf("streamed %d live trajectories through online PRESS:\n", len(ds.Truth))
	fmt.Printf("  spatial:  %4d edges in  -> %4d retained (SP ratio %.2f)\n",
		inEdges, outEdges, float64(inEdges)/float64(outEdges))
	fmt.Printf("  temporal: %4d tuples in -> %4d retained (BTC ratio %.2f, TSND<=%.0fm NSTD<=%.0fs)\n",
		inTuples, outTuples, float64(inTuples)/float64(outTuples), tau, eta)
	fmt.Println("  every path verified lossless and every temporal stream within bounds")

	// Show per-fix latency semantics on one trajectory: what the server has
	// durable after each report.
	tr := ds.Truth[0]
	fmt.Printf("\nlive feed of trajectory 0 (%d fixes):\n", len(tr.Temporal))
	for k, p := range tr.Temporal {
		btc.Push(p)
		if k%5 == 0 {
			fmt.Printf("  after fix %2d (t=%5.0fs, d=%6.0fm): %d tuples durable\n",
				k, p.T, p.D, len(btc.Retained()))
		}
	}
	fmt.Printf("  stream closed: %d of %d tuples retained\n", len(btc.Flush()), len(tr.Temporal))
}
