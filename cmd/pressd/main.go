// Command pressd is the PRESS serving daemon: HTTP ingest of live GPS
// observations per vehicle plus the paper's LBS queries (whereat, whenat,
// range, minimal distance) answered directly against the compressed fleet
// store — the city-scale serving system the paper pitches compression as
// enabling.
//
//	pressd -net network.txt -train trips.txt -store fleet/ \
//	       [-addr :8321] [-shards 4] [-theta 3] \
//	       [-tsnd 0] [-nstd 0] [-idle-flush 30s] [-max-session-bytes 1048576] \
//	       [-max-concurrent 0] [-max-frame-bytes 1048576] [-drain-timeout 30s] \
//	       [-cluster host0:8321,host1:8321 -node-index 0] [-checkpoint-every 0]
//
// With -cluster the daemon is one member of a static partitioned fleet: it
// accepts only vehicles hashing to -node-index and answers 421 (naming the
// owner) for the rest, exposes /readyz for the router's health probes, and
// serves only its partition of fleet-wide queries. Put cmd/pressr in front
// to reassemble the fleet surface.
//
// Ingest has two surfaces: JSON per vehicle (POST /v1/ingest/{id}, the
// debug path) and the binary batched wire protocol (Content-Type
// application/x-press-wire on either /v1/ingest or /v1/ingest/{id}) whose
// decode path allocates nothing per point; -max-frame-bytes caps a single
// frame's payload.
//
// Cold start is graph load plus codebook training: shortest paths come
// from an early-stopped search that needs no preprocessing, no index file
// and no memory map, so every boot takes the same path.
//
// The fleet store at -store is created when absent (with -shards segment
// files) and reopened — recovering per shard from any crash tail — when
// present.
//
// On SIGINT/SIGTERM the daemon drains: it drops /readyz first (so a router
// stops sending new work), checkpoints every open ingest session to the
// store, stops accepting connections, finishes in-flight requests, flushes
// again, syncs and closes the store, and exits 0. A drain that exceeds
// -drain-timeout discards the remaining open sessions (records already in
// the store always survive) and exits 1. -checkpoint-every additionally
// flushes all open sessions on a timer, bounding what a crash can lose.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"press"
	"press/internal/roadnet"
	"press/internal/traj"
)

func main() {
	var (
		netPath  = flag.String("net", "data/network.txt", "road network file")
		train    = flag.String("train", "data/trips.txt", "training paths file")
		storeDir = flag.String("store", "fleet", "sharded fleet store directory")
		shards   = flag.Int("shards", 4, "shard count when creating a new store")
		addr     = flag.String("addr", ":8321", "listen address")
		theta    = flag.Int("theta", 3, "max mined sub-trajectory length")
		tsnd     = flag.Float64("tsnd", 0, "TSND bound (m)")
		nstd     = flag.Float64("nstd", 0, "NSTD bound (s)")
		idle     = flag.Duration("idle-flush", 30*time.Second, "auto-flush sessions idle this long (0 = never)")
		maxSess  = flag.Int("max-session-bytes", 1<<20, "per-session retained-memory cap (0 = unlimited)")
		maxConc  = flag.Int("max-concurrent", 0, "max concurrent requests (0 = 4x GOMAXPROCS, <0 = unbounded)")
		maxFrame = flag.Int("max-frame-bytes", 0, "binary wire frame payload cap in bytes (0 = 1 MiB default)")
		drain    = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		cluster  = flag.String("cluster", "", "comma-separated node address list; enables cluster mode (every node and the router must use the same list)")
		nodeIdx  = flag.Int("node-index", 0, "this node's index into -cluster")
		ckptEach = flag.Duration("checkpoint-every", 0, "periodically flush all open ingest sessions to the store (0 = never)")
	)
	flag.Parse()

	clusterOpt := press.ClusterOptions{}
	if *cluster != "" {
		topo, err := press.ParseClusterTopology(*cluster)
		if err != nil {
			fatal(err)
		}
		clusterOpt = press.ClusterOptions{Nodes: topo.Nodes(), NodeIndex: *nodeIdx}
	}

	g := loadNet(*netPath)
	training := loadPaths(*train)

	cfg := press.DefaultConfig()
	cfg.Theta = *theta
	cfg.TSND, cfg.NSTD = *tsnd, *nstd
	cfg.SessionIdleFlush = *idle

	t0 := time.Now()
	sys, err := press.NewSystem(g, training, cfg)
	if err != nil {
		fatal(err)
	}
	boot := time.Since(t0)

	st, err := openOrCreateStore(*storeDir, *shards)
	if err != nil {
		fatal(err)
	}

	srv, err := sys.NewServer(context.Background(), st, press.ServerOptions{
		MaxConcurrent: *maxConc,
		Stream:        press.StreamOptions{MaxSessionBytes: *maxSess},
		MaxFrameBytes: *maxFrame,
		Cluster:       clusterOpt,
	})
	if err != nil {
		st.Close()
		fatal(err)
	}

	stats := sys.SPStats()
	fmt.Printf("pressd: booted in %v: %d edges, SP %s (%d scratch bytes per search), store %q (%d records, %d shards)\n",
		boot.Round(time.Millisecond), g.NumEdges(), stats.Kind,
		stats.HeapBytes, *storeDir, st.Len(), st.Shards())

	if clusterOpt.Nodes > 1 {
		fmt.Printf("pressd: cluster node %d of %d (owning vehicles where hash(id) %% %d == %d)\n",
			clusterOpt.NodeIndex, clusterOpt.Nodes, clusterOpt.Nodes, clusterOpt.NodeIndex)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	fmt.Printf("pressd: listening on %s\n", *addr)

	// Periodic checkpoint: flush every open session so a later crash loses
	// at most one checkpoint interval of tail points.
	ckptDone := make(chan struct{})
	if *ckptEach > 0 {
		go func() {
			tick := time.NewTicker(*ckptEach)
			defer tick.Stop()
			for {
				select {
				case <-ckptDone:
					return
				case <-tick.C:
					if n, err := srv.Checkpoint(context.Background()); err != nil {
						fmt.Fprintf(os.Stderr, "pressd: checkpoint: %v\n", err)
					} else if n > 0 {
						fmt.Fprintf(os.Stderr, "pressd: checkpointed %d sessions\n", n)
					}
				}
			}
		}()
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		close(ckptDone)
		st.Close()
		fatal(err) // listener died before any signal
	case <-sigCtx.Done():
	}
	stop()
	close(ckptDone)

	// Drain handoff: stop advertising readiness first so the router's next
	// probe routes around this node, then checkpoint every open session while
	// still accepting in-flight work, then stop the listener. Shutdown
	// re-flushes whatever arrived between checkpoint and close.
	fmt.Fprintf(os.Stderr, "pressd: draining (budget %v)...\n", *drain)
	srv.SetReady(false)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if n, err := srv.Checkpoint(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "pressd: drain checkpoint: %v\n", err)
	} else if n > 0 {
		fmt.Fprintf(os.Stderr, "pressd: drain checkpointed %d sessions\n", n)
	}
	shutdownErr := srv.Shutdown(drainCtx)
	syncErr := st.Sync()
	closeErr := st.Close()
	if err := errors.Join(shutdownErr, syncErr, closeErr); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "pressd: clean exit")
}

// openOrCreateStore reopens an existing sharded store (recovering crash
// tails) or creates a fresh one; any other open failure, such as a path
// that is not a store directory, is returned as is.
func openOrCreateStore(dir string, shards int) (*press.ShardedFleetStore, error) {
	st, err := press.OpenShardedFleetStore(dir)
	if errors.Is(err, os.ErrNotExist) {
		return press.CreateShardedFleetStore(dir, shards)
	}
	return st, err
}

func loadNet(path string) *roadnet.Graph {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	g, err := roadnet.Read(f)
	if err != nil {
		fatal(err)
	}
	return g
}

func loadPaths(path string) []traj.Path {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	paths, err := traj.ReadPaths(f)
	if err != nil {
		fatal(err)
	}
	return paths
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pressd:", err)
	os.Exit(1)
}
