// LBS queries: the §5 application scenarios over compressed trajectories —
// a traffic snapshot via whereat across the fleet, region monitoring via
// range, proximity alerts via PassesNear, and trajectory similarity via
// MinDistance — all without decompressing anything.
//
//	go run ./examples/lbsqueries [-trips 150]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"press"
)

func main() {
	trips := flag.Int("trips", 150, "fleet size")
	flag.Parse()

	ds, err := press.GenerateDataset(press.DefaultDatasetOptions(*trips))
	if err != nil {
		log.Fatal(err)
	}
	cfg := press.DefaultConfig()
	cfg.TSND, cfg.NSTD = 50, 30
	sys, err := press.NewSystem(ds.Graph, ds.Trips[:len(ds.Trips)/2], cfg)
	if err != nil {
		log.Fatal(err)
	}
	cts, err := sys.CompressAll(ds.Truth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed fleet of %d trajectories; all queries below run on the compressed forms\n\n", len(cts))

	// --- Traffic snapshot (§5.4 application 1): whereat over every active
	// trajectory at one instant, bucketed into a coarse grid = congestion map.
	const snapshotT = 120.0
	type cell struct{ cx, cy int }
	counts := map[cell]int{}
	active := 0
	for i, ct := range cts {
		ts := ds.Truth[i].Temporal
		if snapshotT < ts[0].T || snapshotT > ts[len(ts)-1].T {
			continue
		}
		pos, err := sys.WhereAt(ct, snapshotT)
		if err != nil {
			log.Fatal(err)
		}
		counts[cell{int(pos.X / 400), int(pos.Y / 400)}]++
		active++
	}
	type kv struct {
		c cell
		n int
	}
	var hot []kv
	for c, n := range counts {
		hot = append(hot, kv{c, n})
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].n != hot[j].n {
			return hot[i].n > hot[j].n
		}
		return hot[i].c.cx*1000+hot[i].c.cy < hot[j].c.cx*1000+hot[j].c.cy
	})
	fmt.Printf("traffic snapshot at t=%.0fs: %d active vehicles; busiest 400m cells:\n", snapshotT, active)
	for i := 0; i < len(hot) && i < 3; i++ {
		fmt.Printf("  cell (%d,%d): %d vehicles\n", hot[i].c.cx, hot[i].c.cy, hot[i].n)
	}

	// --- Region monitoring (§5.4 application 2): which trajectories crossed
	// the city-center block during a time window?
	center := ds.Graph.MBR().Center()
	block := press.NewMBR(
		press.Point{X: center.X - 300, Y: center.Y - 300},
		press.Point{X: center.X + 300, Y: center.Y + 300})
	crossed := 0
	for _, ct := range cts {
		hit, err := sys.Range(ct, 0, 600, block)
		if err != nil {
			log.Fatal(err)
		}
		if hit {
			crossed++
		}
	}
	fmt.Printf("\nregion monitor: %d/%d trajectories crossed the 600m city-center block in t=[0,600]s\n",
		crossed, len(cts))

	// --- Proximity alert: who passed within 150 m of the depot?
	depot := press.Point{X: center.X + 500, Y: center.Y - 500}
	near := 0
	for _, ct := range cts {
		ok, err := sys.PassesNear(ct, depot, 150, 0, 1e9)
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			near++
		}
	}
	fmt.Printf("proximity alert: %d trajectories passed within 150m of the depot %v\n", near, depot)

	// --- Similarity (§5.4 application 3): closest pair among the first few
	// trajectories by minimal path distance.
	bestI, bestJ, bestD := -1, -1, 1e18
	limit := len(cts)
	if limit > 12 {
		limit = 12
	}
	for i := 0; i < limit; i++ {
		for j := i + 1; j < limit; j++ {
			d, err := sys.MinDistance(cts[i], cts[j])
			if err != nil {
				log.Fatal(err)
			}
			if d < bestD {
				bestI, bestJ, bestD = i, j, d
			}
		}
	}
	fmt.Printf("similarity: closest pair among first %d = (#%d, #%d) at %.1f m minimal path distance\n",
		limit, bestI, bestJ, bestD)
}
