package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"press/internal/cluster"
	"press/internal/core"
	"press/internal/mapmatch"
	"press/internal/query"
	"press/internal/roadnet"
	"press/internal/server"
	"press/internal/spindex"
	"press/internal/store"
	"press/internal/traj"
)

// system is the program under test, assembled the way `pressd -init
// -spmode hier` boots it: build the contraction hierarchy, save it as a
// PRSP v2 snapshot, map the snapshot back, train the codebook and hang the
// compressor, query engine and (batch only) matcher off the mapped source.
type system struct {
	g       *roadnet.Graph
	hier    *spindex.Hier // the mapped hierarchy, for stats and Close
	sp      spindex.SP    // hier, or the counting decorator around it when traced
	cb      *core.Codebook
	comp    *core.Compressor
	eng     *query.Engine
	matcher *mapmatch.Matcher

	buildS, openS float64
}

func bootSystem(g *roadnet.Graph, training []traj.Path, dir string, tr *tracer) (*system, error) {
	snap := filepath.Join(dir, "sp.prsp")
	t0 := time.Now()
	built := spindex.NewHierWith(g, spindex.HierOptions{})
	if err := built.SaveSnapshot(snap); err != nil {
		return nil, fmt.Errorf("saving SP snapshot: %w", err)
	}
	buildS := time.Since(t0).Seconds()
	t0 = time.Now()
	h, err := spindex.OpenHierMapped(snap, g)
	if err != nil {
		return nil, fmt.Errorf("mapping SP snapshot: %w", err)
	}
	sys := &system{g: g, hier: h, sp: h, buildS: buildS, openS: time.Since(t0).Seconds()}
	if tr != nil {
		sys.sp = countingSP{SP: h, t: tr}
	}
	corpus := make([]traj.Path, 0, len(training))
	for _, p := range training {
		corpus = append(corpus, core.SPCompress(sys.sp, p))
	}
	if sys.cb, err = core.Train(corpus, core.TrainOptions{NumEdges: g.NumEdges(), Theta: theta}); err == nil {
		if sys.comp, err = core.NewCompressor(g, sys.sp, sys.cb, tauMeters, etaSeconds); err == nil {
			if sys.eng, err = query.NewEngine(g, sys.sp, sys.cb); err == nil {
				sys.matcher, err = mapmatch.New(g, sys.sp, mapmatch.DefaultOptions())
			}
		}
	}
	if err != nil {
		return nil, errors.Join(err, h.Close())
	}
	return sys, nil
}

func (s *system) close() error { return s.hier.Close() }

// spInfo is what the facade's SPStats reports for a mapped hierarchy; the
// server publishes it under /v1/stats.
func (s *system) spInfo() server.SPInfo {
	uh, um, ub := s.hier.UnpackCacheStats()
	return server.SPInfo{
		Kind: "hier", Mapped: s.hier.Mapped(), CachedRows: s.hier.CachedRows(),
		HeapBytes: s.hier.MemoryBytes(), MappedBytes: s.hier.MappedBytes(),
		WitnessSettleCap: s.hier.WitnessCap(), RowCacheBytes: s.hier.RowCacheBytes(),
		UnpackHits: uh, UnpackMisses: um, UnpackBytes: ub,
	}
}

// node is one pressd-equivalent: store, server and the benchmark-owned
// http.Server around Server.Handler() on a loopback port.
type node struct {
	st   *store.ShardedStore
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{} // closed when Serve returns
}

// bootNode creates a fresh store under dir and serves it with the given
// options. wrap, when non-nil, is put around the handler (traced runs
// record handler spans).
func bootNode(sys *system, dir string, opt server.Options, wrap func(http.Handler) http.Handler) (*node, error) {
	st, err := store.CreateSharded(dir, storeShards)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(context.Background(), server.Config{
		Engine: sys.eng, Compressor: sys.comp, Store: st, SPInfo: sys.spInfo, Options: opt,
	})
	if err != nil {
		return nil, errors.Join(err, st.Close())
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	n := &node{st: st, srv: srv}
	if n.http, n.url, n.done, err = serve(h); err != nil {
		return nil, errors.Join(err, srv.Close(), st.Close())
	}
	return n, nil
}

// serve runs h on a fresh loopback listener.
func serve(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return hs, "http://" + ln.Addr().String(), done, nil
}

// close stops the listener, drains open sessions into the store and closes
// it, returning once the serve goroutine has exited.
func (n *node) close() error {
	err := n.http.Shutdown(context.Background())
	<-n.done
	return errors.Join(err, n.srv.Close(), n.st.Close())
}

// fleetNodes is a pressr router in front of clusterNodes nodes, all in
// this process, all over one mapped SP snapshot.
type fleetNodes struct {
	nodes  []*node
	router *cluster.Router
	http   *http.Server
	url    string
	done   chan struct{}
}

func bootCluster(sys *system, dir string, opt func(server.ClusterOptions) server.Options, wrapNode, wrapRouter func(http.Handler) http.Handler) (*fleetNodes, error) {
	f := &fleetNodes{}
	addrs := make([]string, clusterNodes)
	for k := 0; k < clusterNodes; k++ {
		n, err := bootNode(sys, filepath.Join(dir, fmt.Sprintf("node%d", k)),
			opt(server.ClusterOptions{Nodes: clusterNodes, NodeIndex: k}), wrapNode)
		if err != nil {
			return nil, errors.Join(err, f.close())
		}
		f.nodes = append(f.nodes, n)
		addrs[k] = n.url
	}
	topo, err := cluster.NewTopology(addrs)
	if err != nil {
		return nil, errors.Join(err, f.close())
	}
	if f.router, err = cluster.NewRouter(topo, cluster.Options{}); err != nil { // defaults, probing on
		return nil, errors.Join(err, f.close())
	}
	h := f.router.Handler()
	if wrapRouter != nil {
		h = wrapRouter(h)
	}
	if f.http, f.url, f.done, err = serve(h); err != nil {
		return nil, errors.Join(err, f.close())
	}
	return f, nil
}

func (f *fleetNodes) close() error {
	var err error
	if f.http != nil {
		err = f.http.Shutdown(context.Background())
		<-f.done
	}
	if f.router != nil {
		err = errors.Join(err, f.router.Close())
	}
	for _, n := range f.nodes {
		err = errors.Join(err, n.close())
	}
	return err
}

// storedBytes sums SizeBytes over the given nodes.
func storedBytes(nodes ...*node) int64 {
	var n int64
	for _, nd := range nodes {
		n += nd.st.SizeBytes()
	}
	return n
}

// scratchDir makes a per-process directory for snapshots and stores under
// the checkout's build directory; the caller removes it.
func scratchDir() (string, error) {
	base := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "w")
}
