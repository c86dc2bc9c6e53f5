// The serving daemon, end to end: boot a PRESS system from an SP snapshot
// (mmap, no hierarchy build), expose it over HTTP on loopback, and drive it
// the way a fleet of telematics boxes and an LBS dashboard would — raw JSON
// over the wire, no press import on the client side of the conversation.
//
//	go run ./examples/pressd
//
// The walkthrough: (1) generate a city and save a snapshot; (2) boot the
// server from it; (3) stream one vehicle's trip through POST /v1/ingest/{id}
// as JSON, ending the trip with flush, and a second vehicle through the
// binary batched wire protocol on POST /v1/ingest; (4) ask
// whereat/whenat/range/mindistance over HTTP; (5) read /v1/stats; (6) drain
// with Shutdown and show the store survived. cmd/pressd packages exactly
// this server as a standalone binary.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"press"
)

func main() {
	// --- offline preparation: city, training, SP snapshot ---
	ds, err := press.GenerateDataset(press.DefaultDatasetOptions(40))
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "press-pressd-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	snap := filepath.Join(dir, "sp.snap")
	cfg := press.DefaultConfig()
	cfg.TSND, cfg.NSTD = 50, 30 // meters, seconds
	cfg.SPSnapshotPath = snap   // cache semantics: build once, save
	warm, err := press.NewSystem(ds.Graph, ds.Trips[:20], cfg)
	if err != nil {
		log.Fatal(err)
	}
	warm.Close()

	// --- boot the serving system strictly from the snapshot ---
	cfg.SPSnapshotPath = ""
	t0 := time.Now()
	sys, err := press.NewSystemFromSnapshot(ds.Graph, ds.Trips[:20], snap, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	stats := sys.SPStats()
	fmt.Printf("booted from snapshot in %v: mapped=%v, %d bytes mapped\n",
		time.Since(t0).Round(time.Millisecond), stats.Mapped, stats.MappedBytes)

	st, err := press.CreateShardedFleetStore(filepath.Join(dir, "fleet"), 4)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := sys.NewServer(context.Background(), st, press.ServerOptions{
		Stream: press.StreamOptions{MaxSessionBytes: 1 << 20},
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("pressd serving on %s\n", base)

	// --- a vehicle reports its trip over the wire ---
	type point struct {
		Edge   *int64 `json:"edge,omitempty"`
		Sample *struct {
			D float64 `json:"d"`
			T float64 `json:"t"`
		} `json:"sample,omitempty"`
	}
	var pts []point
	tr := ds.Truth[3]
	_ = tr.Replay(
		func(e press.EdgeID) error {
			v := int64(e)
			pts = append(pts, point{Edge: &v})
			return nil
		},
		func(p press.TemporalEntry) error {
			s := &struct {
				D float64 `json:"d"`
				T float64 `json:"t"`
			}{p.D, p.T}
			pts = append(pts, point{Sample: s})
			return nil
		},
	)
	body, _ := json.Marshal(map[string]any{"points": pts, "flush": true})
	resp, err := http.Post(base+"/v1/ingest/3", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var ing struct {
		Accepted int  `json:"accepted"`
		Flushed  bool `json:"flushed"`
	}
	json.NewDecoder(resp.Body).Decode(&ing)
	resp.Body.Close()
	fmt.Printf("vehicle 3: %d points accepted over HTTP, trip flushed=%v\n", ing.Accepted, ing.Flushed)

	// --- LBS queries over the wire ---
	get := func(path string, v any) {
		r, err := http.Get(base + path)
		if err != nil {
			log.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			log.Fatalf("GET %s: %d", path, r.StatusCode)
		}
		json.NewDecoder(r.Body).Decode(v)
	}
	tmid := (tr.Temporal[0].T + tr.Temporal[len(tr.Temporal)-1].T) / 2
	var pos struct{ X, Y float64 }
	get(fmt.Sprintf("/v1/whereat?id=3&t=%g", tmid), &pos)
	fmt.Printf("whereat t=%.0fs   -> (%.0f, %.0f) m\n", tmid, pos.X, pos.Y)

	var when struct{ T float64 }
	get(fmt.Sprintf("/v1/whenat?id=3&x=%g&y=%g", pos.X, pos.Y), &when)
	fmt.Printf("whenat that spot -> t=%.0fs\n", when.T)

	var hit struct{ Hit bool }
	get(fmt.Sprintf("/v1/range?id=3&t1=%g&t2=%g&xmin=%g&ymin=%g&xmax=%g&ymax=%g",
		tr.Temporal[0].T, tr.Temporal[len(tr.Temporal)-1].T,
		pos.X-100, pos.Y-100, pos.X+100, pos.Y+100), &hit)
	fmt.Printf("range 100m box   -> hit=%v\n", hit.Hit)

	// A second vehicle reports over the binary wire protocol instead — the
	// high-throughput surface a real telematics gateway would batch through.
	// One CRC-framed frame carries the whole trip; the flush flag on the
	// group ends the session server-side.
	var enc press.WireEncoder
	enc.StartGroup(7, true)
	_ = ds.Truth[7].Replay(
		func(e press.EdgeID) error { enc.Edge(e); return nil },
		func(p press.TemporalEntry) error { enc.Sample(p); return nil },
	)
	r2, err := http.Post(base+"/v1/ingest", press.WireContentType, bytes.NewReader(enc.Finish()))
	if err != nil {
		log.Fatal(err)
	}
	var wing struct {
		Accepted int `json:"accepted"`
		Flushed  int `json:"flushed"`
	}
	json.NewDecoder(r2.Body).Decode(&wing)
	r2.Body.Close()
	fmt.Printf("vehicle 7: %d points accepted over binary wire, %d trip(s) flushed\n", wing.Accepted, wing.Flushed)

	var dist struct{ Distance float64 }
	get("/v1/mindistance?a=3&b=7", &dist)
	fmt.Printf("mindistance(3,7) -> %.0f m\n", dist.Distance)

	g := ds.Graph.MBR()
	var fleet struct{ IDs []uint64 }
	get(fmt.Sprintf("/v1/range?t1=0&t2=1e9&xmin=%g&ymin=%g&xmax=%g&ymax=%g",
		g.MinX, g.MinY, g.MaxX, g.MaxY), &fleet)
	fmt.Printf("fleet range (whole city, all time) -> vehicles %v\n", fleet.IDs)

	var sd struct {
		SP struct {
			Mapped    bool `json:"mapped"`
			HeapBytes int  `json:"heap_bytes"`
		} `json:"sp"`
		Store struct {
			Records int   `json:"records"`
			Bytes   int64 `json:"bytes"`
		} `json:"store"`
	}
	get("/v1/stats", &sd)
	fmt.Printf("stats: sp mapped=%v heap_bytes=%d, store %d records (%d bytes)\n",
		sd.SP.Mapped, sd.SP.HeapBytes, sd.Store.Records, sd.Store.Bytes)

	// --- graceful drain; the store remains an ordinary sharded store ---
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Fatal(err)
	}
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
	st2, err := press.OpenShardedFleetStore(filepath.Join(dir, "fleet"))
	if err != nil {
		log.Fatal(err)
	}
	defer st2.Close()
	fmt.Printf("drained; reopened store holds %d records across %d shards\n", st2.Len(), st2.Shards())
}
