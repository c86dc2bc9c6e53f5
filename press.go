// Package press is a from-scratch Go implementation of PRESS (Paralleled
// Road-Network-Based Trajectory Compression), the trajectory compression
// framework of Song, Sun, Zheng & Zheng (VLDB 2014).
//
// PRESS represents a road-network trajectory as a spatial path (edge
// sequence) plus a temporal sequence ((distance, time) tuples) and
// compresses the two independently:
//
//   - Hybrid Spatial Compression (HSC) is lossless: shortest-path runs
//     collapse to their endpoints, and the remainder is coded against a
//     Huffman-coded trie of frequent sub-trajectories mined from a training
//     corpus;
//   - Bounded Temporal Compression (BTC) is lossy with hard guarantees: the
//     Time Synchronized Network Distance (TSND) and Network Synchronized
//     Time Difference (NSTD) between the original and compressed temporal
//     sequences never exceed the configured bounds.
//
// Compressed trajectories answer whereat, whenat, range, passing-nearby and
// minimal-distance queries without full decompression.
//
// The "Paralleled" in the name is first-class: CompressBatch fans a batch
// over a configurable worker pool with per-item error reporting, and
// NewPipeline / IngestGPS stream raw GPS through match -> reformat ->
// compress on bounded channels with backpressure — in both cases the output
// is byte-identical to the serial path regardless of worker count. The
// pipelines are context-aware (cancellation, graceful Shutdown, adaptive
// worker sizing), and NewStreamIngestor opens the live path: per-vehicle
// sessions compress points online (§7.2) and flush finished trajectories
// to a sharded fleet store.
//
// The System type bundles the full pipeline — map matcher, re-formatter,
// compressor and query processor — behind one handle:
//
//	g, _ := press.GenerateCity(press.DefaultCityOptions())
//	sys, _ := press.NewSystem(g, trainingPaths, press.DefaultConfig())
//	ct, _ := sys.CompressGPS(rawGPS)        // match + reformat + compress
//	pos, _ := sys.WhereAt(ct, someTime)     // query without decompressing
//	tr, _ := sys.Decompress(ct)             // exact spatial recovery
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured reproduction of every figure.
package press

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"press/internal/cluster"
	"press/internal/core"
	"press/internal/gen"
	"press/internal/geo"
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

// Re-exported core types. External callers use these names; the underlying
// implementations live in internal packages.
type (
	// Point is a planar location in meters.
	Point = geo.Point
	// MBR is an axis-aligned bounding rectangle.
	MBR = geo.MBR
	// Graph is a directed road network.
	Graph = roadnet.Graph
	// Vertex is a road intersection.
	Vertex = roadnet.Vertex
	// Edge is a directed road segment.
	Edge = roadnet.Edge
	// VertexID identifies an intersection.
	VertexID = roadnet.VertexID
	// EdgeID identifies a road segment.
	EdgeID = roadnet.EdgeID
	// RawPoint is one GPS sample.
	RawPoint = traj.RawPoint
	// RawTrajectory is a sequence of GPS samples.
	RawTrajectory = traj.Raw
	// Path is a spatial path: consecutive edge ids.
	Path = traj.Path
	// TemporalEntry is one (distance, time) tuple.
	TemporalEntry = traj.Entry
	// Temporal is a trajectory's temporal sequence.
	Temporal = traj.Temporal
	// Trajectory is the PRESS representation: Path + Temporal.
	Trajectory = traj.Trajectory
	// Compressed is a PRESS-compressed trajectory.
	Compressed = core.Compressed
	// BoundingSummary is a record's spatial MBR plus time interval, derived
	// at compress time and persisted alongside v3 store records; fleet
	// queries use it to reject candidates without decompressing.
	BoundingSummary = core.BoundingSummary
	// CityOptions configures the synthetic city generator.
	CityOptions = gen.CityOptions
	// TripOptions configures synthetic trip routing.
	TripOptions = gen.TripOptions
	// GPSOptions configures the GPS sampler.
	GPSOptions = gen.GPSOptions
	// DatasetOptions aggregates the generator knobs.
	DatasetOptions = gen.Options
	// Dataset is a generated workload.
	Dataset = gen.Dataset
	// MatcherOptions tunes the HMM map matcher.
	MatcherOptions = mapmatch.Options
)

// NewMBR constructs a bounding rectangle from two corner points.
func NewMBR(a, b Point) MBR { return geo.NewMBR(a, b) }

// Config configures a System.
type Config struct {
	// Theta is the maximum mined sub-trajectory length (the paper's θ;
	// 3 was optimal on the paper's dataset and is the default).
	Theta int
	// TSND is the maximal tolerated Time Synchronized Network Distance in
	// meters (0 = strictest temporal compression).
	TSND float64
	// NSTD is the maximal tolerated Network Synchronized Time Difference in
	// seconds.
	NSTD float64
	// Matcher tunes the HMM map matcher.
	Matcher MatcherOptions
	// StoreShards is the segment-file count for fleet stores created
	// through System.NewFleetStore (0 or 1 = a single shard). More shards
	// let more pipeline tails append concurrently; shard assignment is a
	// stable hash of the trajectory id, so readers need no coordination.
	StoreShards int
	// MinWorkers and MaxWorkers make pipelines created through this system
	// adaptive: the pool starts at MinWorkers (default 1) and grows toward
	// MaxWorkers while the ingest queue stays deep, shrinking back when the
	// feed goes quiet. MaxWorkers = 0 keeps the fixed-size pool behavior.
	// An explicit workers argument on an Ingest call overrides both.
	MinWorkers int
	MaxWorkers int
	// SessionIdleFlush auto-flushes a live stream-ingest session after this
	// long without a push (0 = sessions end only on explicit flush). See
	// NewStreamIngestor.
	SessionIdleFlush time.Duration
}

// DefaultConfig returns the paper's defaults: θ = 3, zero-error temporal
// bounds, and the matcher tuned for ~10 m GPS noise.
func DefaultConfig() Config {
	return Config{Theta: 3, Matcher: mapmatch.DefaultOptions()}
}

// System is the assembled PRESS pipeline over one road network.
type System struct {
	graph      *roadnet.Graph
	sp         *spindex.Hier // the shortest-path source (nil only when assembled over a Table reference)
	cb         *core.Codebook
	compressor *core.Compressor
	engine     *query.Engine
	matcher    *mapmatch.Matcher
	cfg        Config
}

// NewSystem trains the FST codebook on the given training paths (full edge
// paths; they are SP-compressed internally, as the paper's pipeline does)
// and assembles the compressor, query engine and map matcher over the
// search-backed shortest-path source of g, which needs no preprocessing.
func NewSystem(g *Graph, training []Path, cfg Config) (*System, error) {
	if g == nil {
		return nil, errors.New("press: nil graph")
	}
	return assembleSystem(g, spindex.NewHier(g), training, cfg)
}

// assembleSystem builds the trained pipeline components over sp.
func assembleSystem(g *Graph, sp spindex.SP, training []Path, cfg Config) (*System, error) {
	if cfg.Theta <= 0 {
		cfg.Theta = 3
	}
	if cfg.Matcher.CandidateRadius == 0 {
		cfg.Matcher = mapmatch.DefaultOptions()
	}
	corpus := make([]Path, 0, len(training))
	for _, p := range training {
		corpus = append(corpus, core.SPCompress(sp, p))
	}
	cb, err := core.Train(corpus, core.TrainOptions{NumEdges: g.NumEdges(), Theta: cfg.Theta})
	if err != nil {
		return nil, fmt.Errorf("press: training: %w", err)
	}
	compressor, err := core.NewCompressor(g, sp, cb, cfg.TSND, cfg.NSTD)
	if err != nil {
		return nil, err
	}
	engine, err := query.NewEngine(g, sp, cb)
	if err != nil {
		return nil, err
	}
	matcher, err := mapmatch.New(g, sp, cfg.Matcher)
	if err != nil {
		return nil, err
	}
	h, _ := sp.(*spindex.Hier) // nil for a Table reference
	return &System{
		graph: g, sp: h, cb: cb,
		compressor: compressor, engine: engine, matcher: matcher, cfg: cfg,
	}, nil
}

// SPStats describes the system's shortest-path source for capacity
// accounting.
type SPStats struct {
	Kind      string // active implementation: always "hier"
	HeapBytes int    // scratch bytes one search holds on the Go heap
}

// SPStats reports the current shortest-path source accounting.
func (s *System) SPStats() SPStats {
	return SPStats{Kind: "hier", HeapBytes: s.sp.MemoryBytes()}
}

// Graph returns the road network the system operates on.
func (s *System) Graph() *Graph { return s.graph }

// Config returns the configuration the system was built with.
func (s *System) Config() Config { return s.cfg }

// MatchGPS map-matches a raw GPS trajectory onto the network and re-formats
// it into the PRESS representation.
func (s *System) MatchGPS(raw RawTrajectory) (*Trajectory, error) {
	return s.matcher.MatchAndReformat(raw)
}

// Compress compresses a re-formatted trajectory: the spatial path lossless,
// the temporal sequence within the configured TSND/NSTD bounds.
func (s *System) Compress(tr *Trajectory) (*Compressed, error) {
	return s.compressor.Compress(tr)
}

// CompressGPS is the full pipeline: map matching, re-formatting and
// compression of a raw GPS trajectory.
func (s *System) CompressGPS(raw RawTrajectory) (*Compressed, error) {
	tr, err := s.MatchGPS(raw)
	if err != nil {
		return nil, err
	}
	return s.Compress(tr)
}

// CompressAll compresses a batch in parallel (the "Paralleled" in PRESS).
// The first per-item error aborts the batch; use CompressBatch for
// partial-failure reporting.
func (s *System) CompressAll(trs []*Trajectory) ([]*Compressed, error) {
	return s.compressor.CompressAll(trs)
}

// CompressBatch compresses a batch over a pool of the given number of
// workers (0 = GOMAXPROCS) with first-class partial-failure reporting:
// result i and error i describe trs[i] individually, no item aborts the
// rest, and the output is byte-identical to the serial path regardless of
// worker count.
func (s *System) CompressBatch(trs []*Trajectory, workers int) ([]*Compressed, []error) {
	return s.compressor.CompressBatch(trs, workers)
}

// Pipeline streams raw GPS trajectories through match -> reformat ->
// compress on a worker pool with bounded buffers and backpressure; results
// arrive in submission order. See internal/pipeline for the full contract.
type Pipeline = pipeline.Pipeline

// PipelineOptions tunes a streaming Pipeline (worker pool bounds, buffer
// size).
type PipelineOptions = pipeline.Options

// PipelineResult is the per-trajectory outcome of a Pipeline.
type PipelineResult = pipeline.Result

// ErrPipelineClosed is returned by Pipeline.Submit after Close/Shutdown.
var ErrPipelineClosed = pipeline.ErrClosed

// pipelineOptions resolves the pool shape for an ingest call: an explicit
// worker count gives a fixed pool; otherwise the Config's adaptive bounds
// (if any) apply.
func (s *System) pipelineOptions(workers int) PipelineOptions {
	if workers > 0 || s.cfg.MaxWorkers <= 0 {
		return PipelineOptions{Workers: workers}
	}
	return PipelineOptions{MinWorkers: s.cfg.MinWorkers, MaxWorkers: s.cfg.MaxWorkers}
}

// NewPipeline starts a streaming ingest pipeline over this system's matcher
// and compressor with a background lifetime context; use
// NewPipelineContext to bound it. Submit raw trajectories, consume Results
// concurrently:
//
//	p, _ := sys.NewPipeline(press.PipelineOptions{MinWorkers: 1, MaxWorkers: 8})
//	go func() {
//		for _, r := range feed {
//			if _, err := p.Submit(ctx, r); err != nil { break }
//		}
//		p.Shutdown(ctx)
//	}()
//	for res := range p.Results() { ... }
func (s *System) NewPipeline(opt PipelineOptions) (*Pipeline, error) {
	return pipeline.New(context.Background(), s.matcher, s.compressor, opt)
}

// NewPipelineContext is NewPipeline with an explicit lifetime context:
// cancelling ctx discards queued work and closes Results promptly (use
// Pipeline.Shutdown for a graceful, deadline-bounded drain).
func (s *System) NewPipelineContext(ctx context.Context, opt PipelineOptions) (*Pipeline, error) {
	return pipeline.New(ctx, s.matcher, s.compressor, opt)
}

// IngestGPS pushes a batch of raw GPS trajectories through the full
// paralleled pipeline (match -> reformat -> compress) and returns one result
// per input, in input order, with per-item errors (no fail-fast). workers
// <= 0 uses the Config's adaptive pool bounds when set, else GOMAXPROCS.
func (s *System) IngestGPS(raws []RawTrajectory, workers int) ([]PipelineResult, error) {
	return s.IngestGPSContext(context.Background(), raws, workers)
}

// IngestGPSContext is IngestGPS bound to a context: cancellation stops the
// batch early, marks unprocessed items' Results with the cancellation cause
// and returns it as the error alongside the partial results.
func (s *System) IngestGPSContext(ctx context.Context, raws []RawTrajectory, workers int) ([]PipelineResult, error) {
	return pipeline.RunContext(ctx, s.matcher, s.compressor, raws, s.pipelineOptions(workers))
}

// IngestGPSToShardedStore is IngestGPS with a concurrent storage tail: one
// append goroutine per store shard (capped by the worker count) drains the
// pipeline and appends each compressed trajectory under its submission
// index as trajectory id, so persistence parallelizes with the shard count
// instead of funneling through one writer. results[i].Err records a failed
// append like any other per-item failure; fetch stored records with
// st.Get(uint64(i)).
func (s *System) IngestGPSToShardedStore(st *ShardedFleetStore, raws []RawTrajectory, workers int) ([]PipelineResult, error) {
	return s.IngestGPSToShardedStoreContext(context.Background(), st, raws, workers)
}

// IngestGPSToShardedStoreContext is IngestGPSToShardedStore bound to a
// context; cancellation semantics match IngestGPSContext.
func (s *System) IngestGPSToShardedStoreContext(ctx context.Context, st *ShardedFleetStore, raws []RawTrajectory, workers int) ([]PipelineResult, error) {
	resolved := workers
	if resolved <= 0 {
		if s.cfg.MaxWorkers > 0 {
			resolved = s.cfg.MaxWorkers
		} else {
			resolved = runtime.GOMAXPROCS(0) // mirror pipeline.New's default
		}
	}
	tails := st.Shards()
	if tails > resolved {
		tails = resolved
	}
	return pipeline.RunToShardedStoreContext(ctx, s.matcher, s.compressor, st, raws, s.pipelineOptions(workers), tails)
}

// StreamIngestor is the live per-vehicle session layer: push edges and
// (d, t) samples as vehicles report them, and finished trajectories are
// compressed online and flushed to a store keyed by vehicle id. See
// internal/stream for the full contract.
type StreamIngestor = stream.Manager

// StreamSink receives finished session records keyed by trajectory id; a
// ShardedFleetStore satisfies it.
type StreamSink = stream.Sink

// StreamOptions tunes a StreamIngestor.
type StreamOptions = stream.Options

// ErrStreamClosed is returned by StreamIngestor pushes after Shutdown.
var ErrStreamClosed = stream.ErrManagerClosed

// ErrSessionTooLarge is returned by a stream-ingest push that drove its
// session past StreamOptions.MaxSessionBytes. The point was accepted and
// the session force-flushed around it (nothing lost); the server layer
// surfaces it as HTTP 413.
var ErrSessionTooLarge = stream.ErrSessionTooLarge

// ErrBadObservation is returned by a stream-ingest push the session refused:
// an edge outside the network, or a sample that is non-finite, not later
// than the last one, or behind it in distance. Nothing of it was applied;
// the server layer surfaces it as HTTP 400.
var ErrBadObservation = stream.ErrBadObservation

// NewStreamIngestor opens the live ingest path over this system's online
// codec: per-vehicle sessions keyed by trajectory id, each compressing
// edges and samples the moment their windows close, flushed to sink on
// explicit Flush, on Shutdown, or automatically after
// Config.SessionIdleFlush without a push. The flushed records are
// byte-identical to what the batch pipeline would have produced for the
// same trajectories. ctx is the ingestor's lifetime; cancelling it
// discards open sessions (flushed records stay).
func (s *System) NewStreamIngestor(ctx context.Context, sink StreamSink) (*StreamIngestor, error) {
	return s.NewStreamIngestorOptions(ctx, sink, StreamOptions{})
}

// NewStreamIngestorOptions is NewStreamIngestor with explicit stream
// options (sweep cadence, background flush-error observer). A zero
// IdleFlush falls back to Config.SessionIdleFlush.
func (s *System) NewStreamIngestorOptions(ctx context.Context, sink StreamSink, opt StreamOptions) (*StreamIngestor, error) {
	if opt.IdleFlush == 0 {
		opt.IdleFlush = s.cfg.SessionIdleFlush
	}
	return stream.NewManager(ctx, s.compressor, sink, opt)
}

// Server is the HTTP/JSON serving daemon layer: live per-vehicle ingest
// through the stream session layer plus the paper's LBS queries answered
// against stored compressed trajectories. See internal/server for the wire
// protocol and cmd/pressd for the packaged binary.
type Server = server.Server

// ServerOptions tunes a Server (concurrency bound, session layer, binary
// frame cap).
type ServerOptions = server.Options

// WireEncoder builds binary ingest frames for the serving layer's compact
// wire protocol (Content-Type WireContentType): length-prefixed,
// CRC32-framed batches of points for any number of vehicles. JSON remains
// the debug ingest surface; this is the high-throughput one. See
// internal/wire for the frame layout.
type WireEncoder = wire.Encoder

// WireObs is one observation for a WireEncoder: an edge (NoEdge when
// absent), a (d, t) sample, or both.
type WireObs = wire.Obs

// NoEdge is the sentinel EdgeID for "no edge" (e.g. a WireObs carrying only
// a temporal sample).
const NoEdge = roadnet.NoEdge

// WireContentType selects the binary wire protocol on the ingest endpoints.
const WireContentType = wire.ContentType

// NewServer assembles the HTTP serving layer over this system and the given
// fleet store: POST /v1/ingest/{id} feeds per-vehicle sessions that flush
// into st, and /v1/whereat, /v1/whenat, /v1/range (single-vehicle and
// fleet-index-backed), /v1/mindistance, /healthz and /v1/stats serve reads.
// ctx is the hard-stop lifetime (cancel = discard open sessions); use
// Server.Shutdown for the graceful drain. The server borrows st — close it
// after Shutdown returns. A zero opt.Stream.IdleFlush falls back to
// Config.SessionIdleFlush, mirroring NewStreamIngestor.
func (s *System) NewServer(ctx context.Context, st *ShardedFleetStore, opt ServerOptions) (*Server, error) {
	if opt.Stream.IdleFlush == 0 {
		opt.Stream.IdleFlush = s.cfg.SessionIdleFlush
	}
	return server.New(ctx, server.Config{
		Engine:     s.engine,
		Compressor: s.compressor,
		Store:      st,
		SPInfo: func() server.SPInfo {
			st := s.SPStats()
			return server.SPInfo{Kind: st.Kind, HeapBytes: st.HeapBytes}
		},
		Options: opt,
	})
}

// ClusterOptions places a Server in a static N-node partition: id-keyed
// endpoints refuse vehicles owned by another node with 421 Misdirected
// Request. Set it through ServerOptions.Cluster; the zero value is a
// single-node deployment.
type ClusterOptions = server.ClusterOptions

// ClusterTopology is the static ordered node address list the cluster tier
// routes over; every party (router, nodes, smart clients) must be built
// from the same list in the same order.
type ClusterTopology = cluster.Topology

// ClusterRouter is the stateless scatter-gather front of a cluster: it
// forwards single-vehicle traffic to the owning node by hash, splits bulk
// wire frames per owner, fans fleet queries across all nodes with
// partial-result reporting, and health-gates routing off each node's
// /readyz. See internal/cluster and cmd/pressr.
type ClusterRouter = cluster.Router

// ClusterRouterOptions tunes a ClusterRouter (timeouts, retries, probe
// cadence).
type ClusterRouterOptions = cluster.Options

// ParseClusterTopology parses a comma-separated address list (the -cluster
// flag format); bare host:port entries get an http:// prefix.
func ParseClusterTopology(list string) (*ClusterTopology, error) {
	return cluster.ParseTopology(list)
}

// NewClusterTopology builds a topology from an explicit address slice.
func NewClusterTopology(addrs []string) (*ClusterTopology, error) {
	return cluster.NewTopology(addrs)
}

// NewClusterRouter assembles a router over topo and starts its health
// probers; stop it with Shutdown/Close.
func NewClusterRouter(topo *ClusterTopology, opt ClusterRouterOptions) (*ClusterRouter, error) {
	return cluster.NewRouter(topo, opt)
}

// ClusterOwner returns the node index owning vehicle id in an n-node
// cluster — store.ShardOf, the single ownership hash shared by the store's
// shard files, the nodes' 421 checks and the router's forwarding.
func ClusterOwner(id uint64, nodes int) int { return store.ShardOf(id, nodes) }

// Decompress recovers a trajectory: the spatial path is exactly the
// original, the temporal sequence is the (already usable) BTC output.
func (s *System) Decompress(ct *Compressed) (*Trajectory, error) {
	return s.compressor.Decompress(ct)
}

// WhereAt returns the location along the compressed trajectory at time t;
// the deviation from the true position is bounded by the configured TSND.
func (s *System) WhereAt(ct *Compressed, t float64) (Point, error) {
	return s.engine.WhereAt(ct, t)
}

// WhenAt returns the time the compressed trajectory passes location p; the
// deviation is bounded by the configured NSTD.
func (s *System) WhenAt(ct *Compressed, p Point) (float64, error) {
	return s.engine.WhenAt(ct, p)
}

// Range reports whether the compressed trajectory passes through region r
// during [t1, t2].
func (s *System) Range(ct *Compressed, t1, t2 float64, r MBR) (bool, error) {
	return s.engine.Range(ct, t1, t2, r)
}

// PassesNear reports whether the compressed trajectory comes within dist
// meters of p during [t1, t2].
func (s *System) PassesNear(ct *Compressed, p Point, dist, t1, t2 float64) (bool, error) {
	return s.engine.PassesNear(ct, p, dist, t1, t2)
}

// MinDistance returns the minimal planar distance between the spatial paths
// of two compressed trajectories.
func (s *System) MinDistance(a, b *Compressed) (float64, error) {
	return s.engine.MinDistance(a, b)
}

// Marshal serializes a compressed trajectory.
func Marshal(ct *Compressed) []byte { return ct.Marshal() }

// Unmarshal parses a compressed trajectory serialized by Marshal.
func Unmarshal(b []byte) (*Compressed, error) { return core.UnmarshalCompressed(b) }

// TSND computes the exact Time Synchronized Network Distance between two
// temporal sequences (Definition 1).
func TSND(orig, comp Temporal) float64 { return core.TSND(orig, comp) }

// NSTD computes the exact Network Synchronized Time Difference between two
// temporal sequences (Definition 2).
func NSTD(orig, comp Temporal) float64 { return core.NSTD(orig, comp) }

// Reformat projects raw GPS samples onto a known spatial path, producing
// the PRESS representation without map matching (useful when the true path
// is known, e.g. from a routing engine).
func Reformat(g *Graph, path Path, raw RawTrajectory) (*Trajectory, error) {
	return traj.Reformat(g, path, raw)
}

// GenerateCity builds a synthetic city road network.
func GenerateCity(opt CityOptions) (*Graph, error) { return gen.City(opt) }

// DefaultCityOptions returns the standard synthetic city configuration.
func DefaultCityOptions() CityOptions { return gen.DefaultCity() }

// GenerateDataset builds a full synthetic fleet workload (network, routed
// trips, noisy GPS, ground truth).
func GenerateDataset(opt DatasetOptions) (*Dataset, error) { return gen.Generate(opt) }

// DefaultDatasetOptions returns the standard workload with n trips.
func DefaultDatasetOptions(n int) DatasetOptions { return gen.Default(n) }

// ShardedFleetStore is the persistent fleet store: records partitioned
// across N segment files by trajectory id, safe for concurrent appends and
// reads (see internal/store for the on-disk layout and recovery semantics).
type ShardedFleetStore = store.ShardedStore

// SyncPolicy controls when sharded-store appends reach stable storage;
// install one with ShardedFleetStore.SetSyncPolicy.
type SyncPolicy = store.SyncPolicy

// SyncNever relies on the OS page cache (the default; fastest).
var SyncNever = store.SyncNever

// SyncAlways fsyncs the written shard after every append.
var SyncAlways = store.SyncAlways

// SyncInterval fsyncs a shard after every n appends to it (n <= 0 =
// never): at most n-1 records per shard ride in the page cache.
func SyncInterval(n int) SyncPolicy { return store.SyncInterval(n) }

// CreateShardedFleetStore makes a new empty sharded fleet container
// directory with the given shard count (minimum 1).
func CreateShardedFleetStore(dir string, shards int) (*ShardedFleetStore, error) {
	return store.CreateSharded(dir, shards)
}

// OpenShardedFleetStore opens an existing sharded fleet container,
// rebuilding the per-shard indexes in parallel and recovering each shard
// from a truncated tail record.
func OpenShardedFleetStore(path string) (*ShardedFleetStore, error) {
	return store.OpenSharded(path)
}

// CompactFleetStore rewrites the sharded store at src into dst, keeping
// only the latest record per trajectory id (the one Get serves) and
// dropping superseded duplicates. Shard count, shard placement and survivor
// payload bytes are preserved exactly. Returns the kept and dropped record
// counts.
func CompactFleetStore(src, dst string) (kept, dropped int, err error) {
	return store.Compact(src, dst)
}

// NewFleetStore creates a sharded fleet container at dir with the
// configured Config.StoreShards shard count.
func (s *System) NewFleetStore(dir string) (*ShardedFleetStore, error) {
	return store.CreateSharded(dir, s.cfg.StoreShards)
}

// FleetIndex answers fleet-level queries (which vehicles crossed a region,
// or came near a point, in a window) over each vehicle's latest stored
// record without decompressing the rest: bounding summaries prune, and
// only survivors run the exact §5 predicate. It is the index a Server
// serves /v1/range without an id from.
type FleetIndex = query.IncrementalFleetIndex

// NewFleetIndex indexes the latest record of every vehicle in st from the
// store's persisted bounding summaries. The index does not follow later
// changes to st; call RefreshFromStore(st) to catch up.
func (s *System) NewFleetIndex(st *ShardedFleetStore) (*FleetIndex, error) {
	view, err := query.NewView(s.engine, st, nil)
	if err != nil {
		return nil, err
	}
	fi, err := query.NewIncrementalFleetIndex(view, 0)
	if err != nil {
		return nil, err
	}
	if err := fi.RefreshFromStore(st); err != nil {
		return nil, err
	}
	return fi, nil
}
