package main

import "runtime"

// Fixed configuration. Every comparison between two commits runs with
// exactly these values; they are constants, not flags, so a later change
// cannot tune them per run. README.md states why each was chosen.
const (
	theta       = 3     // FST sub-trajectory length (paper's optimum)
	tauMeters   = 100.0 // BTC TSND bound
	etaSeconds  = 60.0  // BTC NSTD bound
	storeShards = 4     // ShardedStore segment files; SyncNever (the default)
	trainTrips  = 200   // codebook training corpus, routed apart from the trip pool

	defaultSeed    = 1
	defaultSeconds = 16

	// sampleFloor is the least number of timed ops per direction for
	// which p99 still has ten samples beyond it.
	sampleFloor = 1000
	// Every timing figure is a median over slices of the phase (stats.go
	// says why): rateSlices for rates and medians; for p99 up to p99Slices,
	// each of at least p99SliceMin ops, so that one burst does not decide it.
	rateSlices  = 8
	p99Slices   = 16
	p99SliceMin = 200
	// lateLimitMs: a run whose open-loop reader sent later than this at p99
	// is marked invalid. Generator and program share the sandbox's two
	// cores, so a due send can wait a scheduling quantum for a processor;
	// the limit is what that costs here, not the 1 ms a dedicated load
	// generator would be held to.
	lateLimitMs = 10.0
	// warmShare of each timed direction's ops, the first ones, fill the
	// shortest-path and query caches; they run but are left out of the
	// latency percentiles and of the rates. Users of a long-running node do
	// not pay that transient per request, and how much of it a short run
	// catches is chance.
	warmShare = 0.2
)

// Variables only so that the unit tests' smoke runs can shrink them; the
// command never changes them.
var (
	cityScale = 4    // gen.DefaultCity().Scale(4): 30x30 lattice, ~3.2k edges
	tripPool  = 3000 // routed trips the city's traffic is drawn from (gen.DefaultTrips)
	// setupRepeats is how many times an untraced run sets the system up;
	// setup_s is the median, so one slow boot does not decide it.
	setupRepeats = 3
)

// Workload sizes per second of --seconds, calibrated at the seed commit on
// the 2-core sandbox so that each workload's timed part lasts about
// --seconds there. Write sets are fixed by (seed, seconds), never by how
// fast the program runs, so byte and count metrics repeat exactly.
const (
	// batch_gps: matching is slow enough that the write phase needs most of
	// the budget to reach the sample floor; reads get the rest.
	batchWriteShare = 0.65
	batchTrajPerSec = 170 // raw GPS trajectories in the write set, per second of write budget

	// node_live: writer and reader run together for the whole budget.
	liveBaseSessions   = 656 // pre-ingested in set-up: the cycle plus a hot set of never-replaced vehicles
	liveVehicleCycle   = 400 // live trips re-use ids [0,cycle): every flush replaces a record
	liveSessionsPerSec = 270 // live sessions in the write set, per second of budget
	liveChunkObs       = 64  // observations per frame
	liveActiveVehicles = 16  // vehicles whose chunks interleave on the feed
	liveReadRate       = 800 // open-loop reads per second (~30% of one core at seed)
	liveHotSet         = 256 // Zipf support: most recently flushed vehicles first
	liveZipfS          = 1.2
	liveTimesPerTrip   = 16 // distinct whereat instants per trip, so identical requests recur

	// node_scan: half the budget writes, half reads.
	scanSessionsPerSec = 690 // sessions in the write set, per second of budget
	scanTripsPerFrame  = 2   // whole trips per bulk frame (~200 points, three live chunks)
	baseTripsPerFrame  = 8   // set-up ingest is not timed per frame
	// scanCacheBytes is node_scan's QueryCacheBytes. The default (32 MiB)
	// would hold the whole fleet a run can ingest in its time budget; this
	// keeps the decoded fleet at several times the cache, which is the
	// property the workload exists for.
	scanCacheBytes = 256 << 10
	// scanWindowPool: distinct fleet-range windows per run. A window in the
	// centre costs several times one at the edge; over this many, two seeds'
	// pools cost the same on average.
	scanWindowPool = 1024

	// cluster_mix: writer and reader run together for the whole budget.
	clusterNodes          = 2
	clusterBaseSessions   = 600
	clusterSessionsPerSec = 330
	clusterReadRate       = 320 // open-loop reads per second
	clusterWindowPool     = 512
	clusterCompareSample  = 200 // requests byte-compared against a single node afterwards

	// distinctTrips is how many different routed trips a fleet is built
	// from; sessions beyond that replay a trip under a new id and epoch. It
	// is no more than either base fleet, so set-up's ingest drives every
	// route once and the timed part meets the shortest-path and geometry
	// caches of a node that has been up for a while. Routes new to the node
	// are a transient (node_live read p99 three to four times the steady
	// one), and how much of a run it filled decided the run's figures.
	// node_scan's empty store sees all of them in the first eighth of its
	// writes, inside the warm-up share.
	distinctTrips = 600
	// epochSeconds separates groups of sessions in time: one index bucket
	// (query.DefaultBucketSeconds) per epoch.
	epochSeconds = 3600.0
	// fleetPerEpoch is how many sessions of a fleet-query workload share an
	// epoch. All of them overlap a window in that epoch in time, so this sets
	// how many summaries a fleet range must look at and, after the MBR test,
	// how many records it decodes to verify.
	fleetPerEpoch = 100
	// traceBlock: a traced run switches tracing on and off every this many
	// ops, so traced and untraced ops meet the same state.
	traceBlock = 20
)

// nproc bounds the load generator: at most this many client goroutines
// and connections, whatever the workload.
func nproc() int { return runtime.NumCPU() }

// metricDef names one reported metric. Bound is the share by which an
// end-to-end metric may worsen before a change counts as a regression
// (unused for per-layer metrics).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// Exact marks a metric that is a pure function of (seed, seconds): two
	// runs with the same seed must report the very same value. Its bound
	// only absorbs the difference between seeds.
	Exact bool
}

// endToEnd is what an untraced run prints; BENCHMARK.json repeats it and
// TestBenchmarkJSONMatchesTables keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, false},
	{"write_points_per_s", "points/s", "higher", 0.25, false},
	{"write_p50_ms", "ms", "lower", 0.25, false},
	{"write_p99_ms", "ms", "lower", 0.25, false},
	{"read_ops_per_s", "ops/s", "higher", 0.25, false},
	{"read_p50_ms", "ms", "lower", 0.25, false},
	{"read_p99_ms", "ms", "lower", 0.25, false},
	{"compression_ratio", "ratio", "higher", 0.03, true},
	{"stored_bytes_per_point", "B/point", "lower", 0.03, true},
	{"peak_rss_mb", "MiB", "lower", 0.15, false},
}

// perLayer is what a traced run prints. A layer a workload does not
// exercise reports 0 there: that is the "no change expected" side of the
// layer → end-to-end map in README.md.
var perLayer = []metricDef{
	{"mapmatch.match_us_per_point", "us", "lower", 0, false},
	{"mapmatch.edge_recall", "ratio", "higher", 0, false},
	{"spindex.build_s", "s", "lower", 0, false},
	{"spindex.open_s", "s", "lower", 0, false},
	{"spindex.mem_mb", "MiB", "lower", 0, false},
	{"spindex.probes_per_write_op", "count", "lower", 0, false},
	{"spindex.probes_per_read_op", "count", "lower", 0, false},
	{"spindex.probe_us", "us", "lower", 0, false},
	{"spindex.unpack_hit_ratio", "ratio", "higher", 0, false},
	{"spindex.cached_rows", "count", "lower", 0, false},
	{"core.sp_compress_us", "us", "lower", 0, false},
	{"core.fst_encode_us", "us", "lower", 0, false},
	{"core.btc_us", "us", "lower", 0, false},
	{"core.online_push_ns_per_point", "ns", "lower", 0, false},
	{"core.online_flush_us", "us", "lower", 0, false},
	{"core.marshal_us", "us", "lower", 0, false},
	{"core.unmarshal_us", "us", "lower", 0, false},
	{"core.decompress_us", "us", "lower", 0, false},
	{"pipeline.speedup_nproc", "ratio", "higher", 0, false},
	{"pipeline.traj_per_s_1w", "traj/s", "higher", 0, false},
	{"wire.decode_ns_per_point", "ns", "lower", 0, false},
	{"wire.bytes_per_point", "B", "lower", 0, false},
	{"wire.split_us_per_frame", "us", "lower", 0, false},
	{"stream.push_ns_per_point", "ns", "lower", 0, false},
	{"stream.flush_us", "us", "lower", 0, false},
	{"store.append_us", "us", "lower", 0, false},
	{"store.get_us", "us", "lower", 0, false},
	{"store.stat_us", "us", "lower", 0, false},
	{"store.write_amp", "ratio", "lower", 0, false},
	{"query.result_hit_ratio", "ratio", "higher", 0, false},
	{"query.decoded_hit_ratio", "ratio", "higher", 0, false},
	{"query.evictions", "count", "lower", 0, false},
	{"query.decodes_per_read", "count", "lower", 0, false},
	{"query.view_hit_us", "us", "lower", 0, false},
	{"query.view_miss_us", "us", "lower", 0, false},
	{"query.engine_whereat_us", "us", "lower", 0, false},
	{"query.engine_whenat_us", "us", "lower", 0, false},
	{"query.engine_range_us", "us", "lower", 0, false},
	{"query.engine_mindistance_us", "us", "lower", 0, false},
	{"query.index_prune_us", "us", "lower", 0, false},
	{"query.examined_per_result", "ratio", "lower", 0, false},
	{"query.buckets_skipped_share", "ratio", "higher", 0, false},
	{"query.summary_reject_share", "ratio", "higher", 0, false},
	{"server.handler_us.whereat", "us", "lower", 0, false},
	{"server.handler_us.whenat", "us", "lower", 0, false},
	{"server.handler_us.range", "us", "lower", 0, false},
	{"server.handler_us.mindistance", "us", "lower", 0, false},
	{"server.handler_us.ingest_wire", "us", "lower", 0, false},
	{"server.self_us.read", "us", "lower", 0, false},
	{"server.self_us.write", "us", "lower", 0, false},
	{"server.transport_us", "us", "lower", 0, false},
	{"cluster.router_self_us.read", "us", "lower", 0, false},
	{"cluster.router_self_us.write", "us", "lower", 0, false},
	{"cluster.gather_slowest_share", "ratio", "lower", 0, false},
	{"cluster.retries", "count", "lower", 0, false},
	{"cluster.partials", "count", "lower", 0, false},
	{"gen.inputs_s", "s", "lower", 0, false},
	{"gen.late_p99_ms", "ms", "lower", 0, false},
	{"trace.overhead_share.write", "ratio", "lower", 0, false},
	{"trace.overhead_share.read", "ratio", "lower", 0, false},
	{"trace.cover_share.write", "ratio", "higher", 0, false},
	{"trace.cover_share.read", "ratio", "higher", 0, false},
}

// workloadNames is the fixed order workloads run and print in.
var workloadNames = []string{"batch_gps", "node_live", "node_scan", "cluster_mix"}
