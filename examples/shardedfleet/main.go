// Sharded fleet persistence: parallel compression AND parallel storage.
//
//	go run ./examples/shardedfleet
//
// Generates a synthetic taxi fleet, streams it through the paralleled
// pipeline into a 4-shard fleet store (one concurrent append tail per
// shard), then reopens the store — per-shard index rebuild, crash-tail
// recovery — and serves a fleet-level range query straight off disk through
// the fleet index.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"press"
)

func main() {
	ds, err := press.GenerateDataset(press.DefaultDatasetOptions(100))
	if err != nil {
		log.Fatal(err)
	}
	cfg := press.DefaultConfig()
	cfg.TSND, cfg.NSTD = 50, 30
	cfg.StoreShards = 4
	sys, err := press.NewSystem(ds.Graph, ds.Trips[:50], cfg)
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "press-shardedfleet")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Ingest: the pipeline compresses on all cores while 4 tails append
	// concurrently, one per shard. Ids are the submission indexes.
	st, err := sys.NewFleetStore(dir + "/fleet")
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	results, err := sys.IngestGPSToShardedStore(st, ds.Raws, 0)
	if err != nil {
		log.Fatal(err)
	}
	ok := 0
	for _, res := range results {
		if res.Err == nil {
			ok++
		}
	}
	fmt.Printf("ingested %d/%d trajectories into %d shards in %v (%d bytes)\n",
		ok, len(results), st.Shards(), time.Since(t0).Round(time.Millisecond), st.SizeBytes())
	for i := 0; i < st.Shards(); i++ {
		fmt.Printf("  shard %d: %d records\n", i, st.ShardLen(i))
	}
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}

	// 2. Reopen: the manifest is validated, per-shard indexes rebuild in
	// parallel, and a crash tail (none here) would be truncated away.
	st2, err := press.OpenShardedFleetStore(dir + "/fleet")
	if err != nil {
		log.Fatal(err)
	}
	defer st2.Close()
	fmt.Printf("reopened: %d records across %d shards\n", st2.Len(), st2.Shards())

	// 3. Fleet query straight off disk: index every vehicle's latest record
	// from the stored bounding summaries (no payload decode) and ask who
	// crossed the city center in the first ten minutes.
	fi, err := sys.NewFleetIndex(st2)
	if err != nil {
		log.Fatal(err)
	}
	m := ds.Graph.MBR()
	cx, cy := (m.MinX+m.MaxX)/2, (m.MinY+m.MaxY)/2
	r := press.NewMBR(press.Point{X: cx - 400, Y: cy - 400}, press.Point{X: cx + 400, Y: cy + 400})
	ids, err := fi.RangeIDs(0, 600, r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("range query: %d of %d vehicles crossed the center in [0s,600s]; first ids %v\n",
		len(ids), fi.Len(), ids[:min(len(ids), 8)])
}
