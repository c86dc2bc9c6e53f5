// Package server is the network edge of PRESS: an HTTP/JSON daemon layer
// that ingests live GPS observations per vehicle through the stream session
// layer into a sharded fleet store, and answers the paper's LBS queries
// (§5: whereat, whenat, range, minimal distance) directly against the
// stored compressed trajectories — the serving system the paper pitches
// compression as enabling.
//
// Endpoints (JSON unless noted):
//
//	POST /v1/ingest/{id}   feed points for vehicle id; body
//	                       {"points":[{"edge":E}|{"sample":{"d":D,"t":T}}|both,...],
//	                        "flush":bool}; each point opens/extends the
//	                       vehicle's online session; flush ends the trip.
//	                       413 when a point drives the session past the
//	                       memory cap (session force-flushed, point kept).
//	                       With Content-Type application/x-press-wire the
//	                       body is binary wire frames instead (see
//	                       internal/wire); every frame group must carry
//	                       this vehicle's id.
//	POST /v1/ingest        binary-only bulk ingest: a stream of wire
//	                       frames, each batching points for any number of
//	                       vehicles — the high-throughput path; JSON stays
//	                       the debug surface. Responds with a JSON summary
//	                       {"accepted","frames","flushed"}.
//	GET  /v1/whereat       ?id=&t=          -> {"x":..,"y":..}
//	GET  /v1/whenat        ?id=&x=&y=       -> {"t":..}
//	GET  /v1/range         ?id=&t1=&t2=&xmin=&ymin=&xmax=&ymax= -> {"hit":..}
//	                       without id: fleet-index-backed range over every
//	                       vehicle's latest record -> {"ids":[..]}
//	GET  /v1/mindistance   ?a=&b=           -> {"distance":..}
//	POST /v1/mindistance   ?a=, body = a marshalled record -> {"distance":..};
//	                       the cluster's cross-node hop: distance between
//	                       owned vehicle a and a record another node shipped.
//	GET  /v1/record        ?id=             -> the latest stored record,
//	                       marshalled (application/octet-stream)
//	GET  /v1/stats         SP source, session, store, per-endpoint latency
//	GET  /healthz          liveness (never gated by the concurrency bound)
//	GET  /readyz           readiness: 200 only while the node wants new work
//	                       (drops at SetReady(false)/Shutdown; see cluster.go)
//
// In cluster mode (Options.Cluster) every id-keyed endpoint answers 421
// Misdirected Request for vehicles owned by another node, naming the owner.
//
// Queries are answered from the store — a vehicle becomes queryable once
// its session has flushed (explicit flush, idle timeout, memory cap, or
// server drain). Unknown ids are 404, engine refusals ("point not
// locatable") are 422, malformed requests are 400, and a draining server
// answers 503.
//
// Lifecycle mirrors the rest of the repo: the context given to New is the
// hard-stop lifetime (cancel = discard open sessions), Shutdown(ctx) is the
// graceful half — stop accepting, drain in-flight requests, flush every
// open session to the store within ctx's budget (stream.Manager.Shutdown
// semantics: on ctx expiry the remainder is discarded, everything already
// appended stays). The Server borrows Store; the caller closes it after
// Shutdown returns.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"press/internal/core"
	"press/internal/geo"
	"press/internal/query"
	"press/internal/roadnet"
	"press/internal/store"
	"press/internal/stream"
	"press/internal/traj"
	"press/internal/wire"
)

// SPInfo mirrors the facade's SPStats accounting (field-for-field, so the
// facade converts between the two types directly): which shortest-path
// implementation is active (always "hier"), how it is resident (mapped
// snapshot vs Go heap), and the hierarchy's build and cache counters.
type SPInfo struct {
	Kind   string `json:"kind"`
	Mapped bool   `json:"mapped"`
	// Deprecated: always 0; Hier holds no rows.
	CachedRows  int `json:"cached_rows"`
	HeapBytes   int `json:"heap_bytes"`
	MappedBytes int `json:"mapped_bytes"`

	BuildWorkers     int `json:"build_workers"`
	WitnessSettleCap int `json:"witness_settle_cap"`
	// Deprecated: always 0; Hier holds no rows.
	RowCacheBytes int    `json:"row_cache_bytes"`
	UnpackHits    uint64 `json:"unpack_hits"`
	UnpackMisses  uint64 `json:"unpack_misses"`
	UnpackBytes   int    `json:"unpack_bytes"`
}

// Options tunes the serving behavior.
type Options struct {
	// MaxConcurrent bounds the requests processed at once (excess requests
	// wait, respecting their own contexts); 0 = 4×GOMAXPROCS, negative =
	// unbounded. /healthz bypasses the bound so liveness probes cannot be
	// starved by load.
	MaxConcurrent int
	// Stream tunes the per-vehicle session layer (idle auto-flush, memory
	// cap, sweep cadence). See stream.Options.
	Stream stream.Options
	// QueryCacheBytes bounds the query layer's LRU of decoded trajectories
	// and memoized summaries. 0 selects DefaultQueryCacheBytes; negative
	// disables caching entirely.
	QueryCacheBytes int
	// MaxFrameBytes caps a single binary wire frame's payload on the ingest
	// endpoints (see internal/wire); 0 selects wire.DefaultMaxPayload
	// (1 MiB). Oversized frames are refused with 413 before buffering.
	MaxFrameBytes int
	// Deprecated: ignored; the incremental index is the only fleet index.
	IncrementalIndex bool
	// Cluster places this server in a static N-node partition (see
	// ClusterOptions): id-keyed endpoints refuse vehicles another node owns
	// with 421. The zero value is a single-node deployment.
	Cluster ClusterOptions
}

// DefaultQueryCacheBytes is the decoded-trajectory cache budget when
// Options.QueryCacheBytes is zero: enough for a few thousand hot vehicles.
const DefaultQueryCacheBytes = 32 << 20

// Config assembles a Server from its components. Engine, Compressor and
// Store are required.
type Config struct {
	Engine     *query.Engine
	Compressor *core.Compressor
	Store      *store.ShardedStore
	// SPInfo reports the shortest-path source accounting for /v1/stats;
	// nil omits the section.
	SPInfo func() SPInfo
	Options
}

// Server is the HTTP serving layer over one PRESS system and one fleet
// store. Create with New, expose with Handler / Serve / ListenAndServe,
// stop with Shutdown.
type Server struct {
	cfg   Config
	st    *store.ShardedStore
	mgr   *stream.Manager
	mux   *http.ServeMux
	sem   chan struct{}
	start time.Time

	hctx    context.Context // handler gate: done once Shutdown begins
	hcancel context.CancelFunc

	mu       sync.Mutex
	draining bool
	httpSrv  *http.Server
	ready    atomic.Bool // /readyz bit; SetReady flips it ahead of a drain

	view  *query.View  // single-vehicle queries + index verification
	cache *query.Cache // nil = caching disabled

	// Binary wire-protocol counters (see wire.go).
	maxFrame   int
	wireFrames atomic.Uint64
	wirePoints atomic.Uint64
	wireCRC    atomic.Uint64

	// Fleet index state: inc is upserted on every flush; incGen tracks the
	// store generation the index reflects so external store changes — a
	// Compact, a Delete — trigger a metadata refresh, never a rebuild.
	idxMu   sync.Mutex
	inc     *query.IncrementalFleetIndex
	incGen  atomic.Uint64
	applied atomic.Uint64 // flush records applied to the index

	metrics map[string]*endpointMetrics
}

// New assembles a server. ctx is the hard-stop lifetime handed to the
// stream session layer: cancelling it discards open sessions (use Shutdown
// for the graceful drain).
func New(ctx context.Context, cfg Config) (*Server, error) {
	if cfg.Engine == nil || cfg.Compressor == nil || cfg.Store == nil {
		return nil, errors.New("server: nil component")
	}
	if err := cfg.Cluster.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	maxc := cfg.MaxConcurrent
	if maxc == 0 {
		maxc = 4 * runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:     cfg,
		st:      cfg.Store,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		metrics: make(map[string]*endpointMetrics),
	}
	cacheBytes := cfg.QueryCacheBytes
	if cacheBytes == 0 {
		cacheBytes = DefaultQueryCacheBytes
	}
	s.cache = query.NewCache(cacheBytes) // nil when negative = cache off
	view, err := query.NewView(cfg.Engine, cfg.Store, s.cache)
	if err != nil {
		return nil, err
	}
	s.view = view
	inc, err := query.NewIncrementalFleetIndex(view, 0)
	if err != nil {
		return nil, err
	}
	if err := inc.RefreshFromStore(cfg.Store); err != nil {
		return nil, fmt.Errorf("server: priming fleet index: %w", err)
	}
	s.inc = inc
	s.incGen.Store(cfg.Store.Generation())
	// Each successful flush is one store append (one generation tick);
	// applying its summary here keeps the index exactly in step without
	// a store scan. The flushed record always carries its summary, so
	// the upsert never decodes.
	userHook := cfg.Stream.OnFlush
	cfg.Stream.OnFlush = func(id uint64, ct *core.Compressed) {
		s.incGen.Add(1)
		if err := inc.Upsert(id, ct.Summary); err != nil {
			// Could not apply: flag the index stale so the next fleet
			// query repairs it with a metadata refresh.
			s.incGen.Store(0)
		} else {
			s.applied.Add(1)
		}
		if userHook != nil {
			userHook(id, ct)
		}
	}
	mgr, err := stream.NewManager(ctx, cfg.Compressor, cfg.Store, cfg.Stream)
	if err != nil {
		return nil, err
	}
	s.mgr = mgr
	s.hctx, s.hcancel = context.WithCancel(context.Background())
	if maxc > 0 {
		s.sem = make(chan struct{}, maxc)
	}
	s.maxFrame = cfg.MaxFrameBytes
	if s.maxFrame <= 0 {
		s.maxFrame = wire.DefaultMaxPayload
	}
	s.route("POST /v1/ingest/{id}", "ingest", s.handleIngest)
	s.route("POST /v1/ingest", "ingest_wire", s.handleIngestWire)
	s.route("GET /v1/whereat", "whereat", s.handleWhereAt)
	s.route("GET /v1/whenat", "whenat", s.handleWhenAt)
	s.route("GET /v1/range", "range", s.handleRange)
	s.route("GET /v1/mindistance", "mindistance", s.handleMinDistance)
	s.route("POST /v1/mindistance", "mindistance_with", s.handleMinDistanceWith)
	s.route("GET /v1/record", "record", s.handleRecord)
	s.route("GET /v1/stats", "stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	// /readyz and /metrics bypass the concurrency bound like /healthz:
	// probes and scrapes must not be starved by query load.
	s.mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.ready.Store(true)
	return s, nil
}

// Handler returns the server's HTTP handler — the integration point for
// custom listeners and httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// route registers a bounded, instrumented handler.
func (s *Server) route(pattern, name string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, s.instrument(name, s.bound(h)))
}

// bound gates h behind the concurrency semaphore and the drain state.
func (s *Server) bound(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			case <-r.Context().Done():
				writeErr(w, http.StatusServiceUnavailable, "request cancelled while queued")
				return
			case <-s.hctx.Done():
				writeErr(w, http.StatusServiceUnavailable, "server draining")
				return
			}
		}
		if s.isDraining() {
			writeErr(w, http.StatusServiceUnavailable, "server draining")
			return
		}
		h(w, r)
	}
}

// instrument wraps h with per-endpoint latency/error counters for /v1/stats.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	m := &endpointMetrics{}
	s.metrics[name] = m
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		h(sw, r)
		m.observe(time.Since(t0), sw.status)
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Serve accepts connections on ln until Shutdown. It blocks; the
// http.ErrServerClosed a graceful stop produces is swallowed.
//
// Serve may be called at most once per Server: Shutdown drains exactly the
// listener Serve registered, so a second call — which would silently
// replace the registered http.Server and leave the first listener running
// ungracefully after Shutdown — is rejected with an error and its listener
// closed. Callers that need several listeners over one Server should wrap
// Handler() in their own http.Server instances.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	if s.httpSrv != nil {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: Serve already called (wrap Handler() for extra listeners)")
	}
	s.httpSrv = srv
	s.mu.Unlock()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown drains the server: stop accepting connections, wait for
// in-flight requests, then flush every open ingest session to the store —
// all within ctx's budget (past the deadline, remaining sessions are
// discarded; records already appended stay). Idempotent; the first call
// wins. The caller closes the Store afterwards.
func (s *Server) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	srv := s.httpSrv
	s.mu.Unlock()
	s.ready.Store(false) // readiness drops first; liveness stays up
	s.hcancel()          // unblock requests queued on the semaphore

	var first error
	if srv != nil {
		if err := srv.Shutdown(ctx); err != nil {
			first = err
		}
	}
	if err := s.mgr.Shutdown(ctx); err != nil && first == nil {
		first = err
	}
	return first
}

// Close is Shutdown with no deadline.
func (s *Server) Close() error { return s.Shutdown(context.Background()) }

// Sessions returns the live session layer, for callers that want to feed
// it in-process alongside the HTTP path.
func (s *Server) Sessions() *stream.Manager { return s.mgr }

// fleetIndex returns the fleet index, current as of the store's generation
// counter. The generation — not the record count — is the invalidation
// key: a delete+insert pair that leaves the count unchanged still ticks
// the generation, so no query can ever see a stale index. Session flushes
// upsert the index in place and advance incGen in step with the store;
// only an out-of-band store change (Delete, Compact, a direct Append
// outside the session layer) leaves incGen behind, repaired here with a
// metadata-only refresh.
func (s *Server) fleetIndex() (*query.IncrementalFleetIndex, error) {
	if s.incGen.Load() != s.st.Generation() {
		s.idxMu.Lock()
		defer s.idxMu.Unlock()
		if gen := s.st.Generation(); s.incGen.Load() != gen {
			if err := s.inc.RefreshFromStore(s.st); err != nil {
				return nil, err
			}
			s.incGen.Store(gen)
		}
	}
	return s.inc, nil
}

// --- wire types ---

// pointMsg is one observation: the edge the vehicle entered, its (d, t)
// sample, or both (edge first, matching trajectory order).
type pointMsg struct {
	Edge   *int64     `json:"edge,omitempty"`
	Sample *sampleMsg `json:"sample,omitempty"`
}

type sampleMsg struct {
	D float64 `json:"d"`
	T float64 `json:"t"`
}

type ingestRequest struct {
	Points []pointMsg `json:"points"`
	Flush  bool       `json:"flush"`
}

type ingestResponse struct {
	Accepted int    `json:"accepted"`
	Flushed  bool   `json:"flushed"`
	Error    string `json:"error,omitempty"`
}

// maxIngestBody bounds one ingest request (1 MiB ≈ 40k points) so a single
// request cannot balloon the daemon before the session cap even applies.
const maxIngestBody = 1 << 20

// --- handlers ---

// ingestStatus maps a session-layer push/flush error to its HTTP status.
//
// The contract, relied on by both the JSON and binary ingest handlers:
//
//   - The BARE stream.ErrSessionTooLarge sentinel (plain equality, not
//     errors.Is) is the only 413: it means the force-flush succeeded, the
//     breaching point is in the store, and the client merely learns its
//     trajectory was cut.
//   - A WRAPPED/JOINED ErrSessionTooLarge (errors.Join with the sink
//     failure) deliberately falls through to 500: the session was dropped
//     with its data — a server-side loss the client must not mistake for
//     the benign cut. This is why the first case must never use errors.Is.
//   - Manager shutdown and lifetime-context cancellation — wrapped or not,
//     matched with errors.Is — are 503: the daemon is draining, retry
//     against the next instance.
//   - Everything else (sink append failures, codec errors) is 500.
func ingestStatus(err error) int {
	switch {
	case err == stream.ErrSessionTooLarge:
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, stream.ErrManagerClosed), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad vehicle id")
		return
	}
	if !s.checkOwner(w, id) {
		return
	}
	if isWireRequest(r) {
		// Content negotiation: a binary body on the per-vehicle endpoint
		// must carry frames for exactly that vehicle.
		s.ingestWire(w, r, &id)
		return
	}
	var req ingestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody))
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			// Over the per-request cap is "split your batch", not a
			// malformed request — same family as the session cap's 413.
			writeErr(w, http.StatusRequestEntityTooLarge, err.Error())
			return
		}
		writeErr(w, http.StatusBadRequest, "bad body: "+err.Error())
		return
	}
	// One request is one JSON object: trailing bytes (a concatenated second
	// object, stray garbage) mean the client is confused, and silently
	// accepting the prefix would ack points the caller never meant to batch
	// here. json.Decoder stops at the first complete value, so probe for a
	// clean EOF explicitly.
	if _, err := dec.Token(); err != io.EOF {
		writeErr(w, http.StatusBadRequest, "bad body: trailing data after request object")
		return
	}
	resp := ingestResponse{}
	for _, p := range req.Points {
		var err error
		switch {
		case p.Edge != nil && p.Sample != nil:
			err = s.mgr.Push(id, roadnet.EdgeID(*p.Edge), p.Sample.entry())
		case p.Edge != nil:
			err = s.mgr.PushEdge(id, roadnet.EdgeID(*p.Edge))
		case p.Sample != nil:
			err = s.mgr.PushSample(id, p.Sample.entry())
		default:
			writeJSON(w, http.StatusBadRequest, ingestResponse{
				Accepted: resp.Accepted, Error: "point has neither edge nor sample",
			})
			return
		}
		if err != nil {
			resp.Error = err.Error()
			status := ingestStatus(err)
			if status == http.StatusRequestEntityTooLarge {
				// Benign cut (see ingestStatus): the breaching point was
				// accepted and its record is in the store.
				resp.Accepted++
				resp.Flushed = true
			}
			writeJSON(w, status, resp)
			return
		}
		resp.Accepted++
	}
	if req.Flush {
		if err := s.mgr.Flush(id); err != nil {
			resp.Error = err.Error()
			status := ingestStatus(err)
			if status == http.StatusRequestEntityTooLarge {
				// Flush cannot breach the cap; never map it to 413.
				status = http.StatusInternalServerError
			}
			writeJSON(w, status, resp)
			return
		}
		resp.Flushed = true
	}
	writeJSON(w, http.StatusOK, resp)
}

func (m *sampleMsg) entry() traj.Entry { return traj.Entry{D: m.D, T: m.T} }

func (s *Server) handleWhereAt(w http.ResponseWriter, r *http.Request) {
	id, ok := s.vehicleID(w, r, "id")
	if !ok {
		return
	}
	if !s.checkOwner(w, id) {
		return
	}
	t, ok := parseFloat(w, r, "t")
	if !ok {
		return
	}
	p, err := s.view.WhereAt(id, t)
	if err != nil {
		writeQueryErr(w, id, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{"x": p.X, "y": p.Y})
}

func (s *Server) handleWhenAt(w http.ResponseWriter, r *http.Request) {
	id, ok := s.vehicleID(w, r, "id")
	if !ok {
		return
	}
	if !s.checkOwner(w, id) {
		return
	}
	x, ok := parseFloat(w, r, "x")
	if !ok {
		return
	}
	y, ok := parseFloat(w, r, "y")
	if !ok {
		return
	}
	t, err := s.view.WhenAt(id, geo.Point{X: x, Y: y})
	if err != nil {
		writeQueryErr(w, id, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{"t": t})
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	t1, ok := parseFloat(w, r, "t1")
	if !ok {
		return
	}
	t2, ok := parseFloat(w, r, "t2")
	if !ok {
		return
	}
	mbr, ok := parseMBR(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("id") == "" {
		// Fleet-level: which vehicles' latest records crossed the region
		// in the window? The index prunes by bounding summary; survivors
		// run the exact Range predicate. Ids come back ascending.
		idx, err := s.fleetIndex()
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err.Error())
			return
		}
		ids, err := idx.RangeIDs(t1, t2, mbr)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		if ids == nil {
			ids = []uint64{}
		}
		writeJSON(w, http.StatusOK, map[string]any{"ids": ids})
		return
	}
	id, ok := s.vehicleID(w, r, "id")
	if !ok {
		return
	}
	if !s.checkOwner(w, id) {
		return
	}
	hit, err := s.view.Range(id, t1, t2, mbr)
	if err != nil {
		writeQueryErr(w, id, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"hit": hit})
}

func (s *Server) handleMinDistance(w http.ResponseWriter, r *http.Request) {
	a, ok := s.vehicleID(w, r, "a")
	if !ok {
		return
	}
	b, ok := s.vehicleID(w, r, "b")
	if !ok {
		return
	}
	// In cluster mode both operands must live here; the router detects the
	// cross-owner case from the 421 and ships b's record to a's owner via
	// POST /v1/mindistance instead.
	if !s.checkOwner(w, a) || !s.checkOwner(w, b) {
		return
	}
	d, err := s.view.MinDistance(a, b)
	if err != nil {
		id := a
		if _, _, statErr := s.st.StatRecord(b); statErr != nil {
			id = b
		}
		writeQueryErr(w, id, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{"distance": d})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.isDraining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":   status,
		"uptime_s": int64(time.Since(s.start).Seconds()),
	})
}

// statsResponse is the /v1/stats document.
type statsResponse struct {
	SP       *SPInfo                    `json:"sp,omitempty"`
	Cluster  *clusterStats              `json:"cluster,omitempty"`
	Sessions sessionStats               `json:"sessions"`
	Store    storeStats                 `json:"store"`
	Query    queryStats                 `json:"query"`
	Index    indexInfo                  `json:"index"`
	Wire     wireStats                  `json:"wire"`
	Server   serverStats                `json:"server"`
	Endpoint map[string]endpointSummary `json:"endpoints"`
}

// queryStats surfaces the cache hierarchy: LRU counters plus the number of
// full decodes the view performed (the work a cache hit skips).
type queryStats struct {
	CacheEnabled bool             `json:"cache_enabled"`
	Cache        query.CacheStats `json:"cache"`
	Decodes      uint64           `json:"decodes"`
}

// indexInfo describes the fleet index: its size, the flush records
// applied in place, and its maintenance and pruning counters.
type indexInfo struct {
	Len         int               `json:"len"`
	Applied     uint64            `json:"applied,omitempty"`
	Incremental *query.IndexStats `json:"incremental,omitempty"`
}

func (s *Server) indexInfo() indexInfo {
	st := s.inc.Stats()
	return indexInfo{
		Len:         st.Entries,
		Applied:     s.applied.Load(),
		Incremental: &st,
	}
}

// clusterStats is the /v1/stats cluster section, present only in cluster
// mode: this node's place in the topology plus its readiness bit.
type clusterStats struct {
	Node  int  `json:"node"`
	Nodes int  `json:"nodes"`
	Ready bool `json:"ready"`
}

type sessionStats struct {
	Active  int    `json:"active"`
	Flushed uint64 `json:"flushed"`
	Points  uint64 `json:"points"`
}

type storeStats struct {
	Records int   `json:"records"`
	Shards  int   `json:"shards"`
	Bytes   int64 `json:"bytes"`
}

type serverStats struct {
	InFlight      int   `json:"in_flight"`
	MaxConcurrent int   `json:"max_concurrent"`
	UptimeSeconds int64 `json:"uptime_s"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := statsResponse{
		Sessions: sessionStats{
			Active:  s.mgr.Active(),
			Flushed: s.mgr.Flushed(),
			Points:  s.mgr.Pushes(),
		},
		Store: storeStats{
			Records: s.st.Len(),
			Shards:  s.st.Shards(),
			Bytes:   s.st.SizeBytes(),
		},
		Query: queryStats{
			CacheEnabled: s.cache != nil,
			Cache:        s.view.CacheStats(),
			Decodes:      s.view.Decodes(),
		},
		Index: s.indexInfo(),
		Wire:  s.wireInfo(),
		Server: serverStats{
			InFlight:      len(s.sem),
			MaxConcurrent: cap(s.sem),
			UptimeSeconds: int64(time.Since(s.start).Seconds()),
		},
		Endpoint: make(map[string]endpointSummary, len(s.metrics)),
	}
	if s.cfg.SPInfo != nil {
		info := s.cfg.SPInfo()
		resp.SP = &info
	}
	if c := s.cfg.Cluster; c.enabled() {
		resp.Cluster = &clusterStats{Node: c.NodeIndex, Nodes: c.Nodes, Ready: s.Ready()}
	}
	for name, m := range s.metrics {
		resp.Endpoint[name] = m.summary()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics is the Prometheus text exposition (version 0.0.4) of the
// same counters /v1/stats reports as JSON, hand-rolled — the daemon takes
// no client-library dependency for a line protocol this small.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("press_uptime_seconds", "Seconds since the server started.", time.Since(s.start).Seconds())
	ready := 0.0
	if s.Ready() {
		ready = 1
	}
	gauge("press_ready", "Readiness bit (/readyz): 1 while the node accepts new work.", ready)
	if c := s.cfg.Cluster; c.enabled() {
		gauge("press_cluster_node", "This node's index in the static cluster topology.", float64(c.NodeIndex))
		gauge("press_cluster_nodes", "Cluster size the node was booted with.", float64(c.Nodes))
	}
	gauge("press_sessions_active", "Open ingest sessions.", float64(s.mgr.Active()))
	counter("press_sessions_flushed_total", "Session records appended to the store.", s.mgr.Flushed())
	counter("press_ingest_points_total", "GPS observations accepted.", s.mgr.Pushes())

	wi := s.wireInfo()
	counter("press_wire_frames_total", "Binary wire frames accepted.", wi.Frames)
	counter("press_wire_points_total", "Points ingested through the binary wire protocol.", wi.Points)
	counter("press_wire_crc_errors_total", "Wire frames rejected for a checksum mismatch.", wi.CRCErrors)

	gauge("press_store_records", "Live records in the fleet store.", float64(s.st.Len()))
	gauge("press_store_bytes", "Fleet store size on disk.", float64(s.st.SizeBytes()))
	gauge("press_store_generation", "Store mutation generation counter.", float64(s.st.Generation()))

	cs := s.view.CacheStats()
	counter("press_query_cache_hits_total", "Decoded-record cache hits.", cs.Hits)
	counter("press_query_cache_misses_total", "Decoded-record cache misses.", cs.Misses)
	counter("press_query_cache_summary_hits_total", "Memoized-summary cache hits.", cs.SummaryHits)
	counter("press_query_cache_summary_misses_total", "Memoized-summary cache misses.", cs.SummaryMisses)
	counter("press_query_cache_evictions_total", "Cache entries evicted.", cs.Evictions)
	gauge("press_query_cache_entries", "Entries resident in the query cache.", float64(cs.Entries))
	gauge("press_query_cache_bytes", "Estimated bytes resident in the query cache.", float64(cs.Bytes))
	counter("press_query_result_cache_hits_total", "Memoized whereat/whenat result hits.", cs.ResultHits)
	counter("press_query_result_cache_misses_total", "Memoized whereat/whenat result misses.", cs.ResultMisses)
	gauge("press_query_result_cache_entries", "Entries resident in the result memo.", float64(cs.ResultEntries))
	counter("press_query_decodes_total", "Records fully decoded by the query view.", s.view.Decodes())

	idx := s.indexInfo()
	gauge("press_fleet_index_entries", "Vehicles in the fleet index.", float64(idx.Len))
	inc := idx.Incremental
	counter("press_fleet_index_upserts_total", "In-place index upserts.", inc.Upserts)
	counter("press_fleet_index_deletes_total", "In-place index deletes.", inc.Deletes)
	counter("press_fleet_index_refreshes_total", "Metadata-only index refreshes.", inc.Refreshes)
	counter("press_fleet_index_summary_rejects_total", "Candidates rejected by bounding summary.", inc.SummaryRejects)
	counter("press_fleet_index_buckets_skipped_total", "Time buckets skipped whole.", inc.BucketsSkipped)
	counter("press_fleet_index_verifies_total", "Candidates verified with the exact predicate.", inc.Verifies)

	if s.cfg.SPInfo != nil {
		sp := s.cfg.SPInfo()
		fmt.Fprintf(&b, "# HELP press_sp_kind Active shortest-path implementation (value is always 1; the kind label carries the information).\n# TYPE press_sp_kind gauge\npress_sp_kind{kind=%q} 1\n", sp.Kind)
		gauge("press_sp_heap_bytes", "Shortest-path source bytes resident on the Go heap.", float64(sp.HeapBytes))
		gauge("press_sp_mapped_bytes", "Shortest-path source bytes served from the read-only snapshot mapping.", float64(sp.MappedBytes))
		gauge("press_sp_build_workers", "Goroutines the contraction-hierarchy build ran on.", float64(sp.BuildWorkers))
		gauge("press_sp_witness_settle_cap", "Resolved witness settle cap of the hierarchy build.", float64(sp.WitnessSettleCap))
		counter("press_sp_unpack_cache_hits_total", "Shortcut-unpack cache hits.", sp.UnpackHits)
		counter("press_sp_unpack_cache_misses_total", "Shortcut-unpack cache misses.", sp.UnpackMisses)
		gauge("press_sp_unpack_cache_bytes", "Heap bytes of the shortcut-unpack cache.", float64(sp.UnpackBytes))
	}

	names := make([]string, 0, len(s.metrics))
	for name := range s.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "# HELP press_requests_total Requests served per endpoint.\n# TYPE press_requests_total counter\n")
	for _, name := range names {
		fmt.Fprintf(&b, "press_requests_total{endpoint=%q} %d\n", name, s.metrics[name].count.Load())
	}
	fmt.Fprintf(&b, "# HELP press_request_errors_total Requests answered with status >= 400 per endpoint.\n# TYPE press_request_errors_total counter\n")
	for _, name := range names {
		fmt.Fprintf(&b, "press_request_errors_total{endpoint=%q} %d\n", name, s.metrics[name].errs.Load())
	}
	fmt.Fprintf(&b, "# HELP press_request_duration_seconds_sum Cumulative request latency per endpoint.\n# TYPE press_request_duration_seconds_sum counter\n")
	for _, name := range names {
		fmt.Fprintf(&b, "press_request_duration_seconds_sum{endpoint=%q} %g\n", name, float64(s.metrics[name].totalNS.Load())/1e9)
	}
	// The same latency counters as a proper summary (sum/count pairs), so
	// node and router latencies are comparable under one metric name and
	// rate(sum)/rate(count) yields the mean without the bespoke metric
	// above (kept for dashboard compatibility).
	fmt.Fprintf(&b, "# HELP press_http_request_seconds Request latency per endpoint.\n# TYPE press_http_request_seconds summary\n")
	for _, name := range names {
		m := s.metrics[name]
		fmt.Fprintf(&b, "press_http_request_seconds_sum{endpoint=%q} %g\n", name, float64(m.totalNS.Load())/1e9)
		fmt.Fprintf(&b, "press_http_request_seconds_count{endpoint=%q} %d\n", name, m.count.Load())
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// vehicleID parses the query parameter key as a vehicle id.
func (s *Server) vehicleID(w http.ResponseWriter, r *http.Request, key string) (uint64, bool) {
	id, err := strconv.ParseUint(r.URL.Query().Get(key), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad or missing "+key)
		return 0, false
	}
	return id, true
}

// writeQueryErr maps a View query failure to a status: unknown vehicle is
// 404, store damage is 500, anything else is an engine refusal (422).
func writeQueryErr(w http.ResponseWriter, id uint64, err error) {
	switch {
	case errors.Is(err, store.ErrNotFound):
		writeErr(w, http.StatusNotFound, fmt.Sprintf("vehicle %d has no stored trajectory", id))
	case errors.Is(err, store.ErrCorrupt), errors.Is(err, store.ErrBadLayout):
		writeErr(w, http.StatusInternalServerError, err.Error())
	default:
		writeErr(w, http.StatusUnprocessableEntity, err.Error())
	}
}

// --- helpers ---

// parseFloat parses the query parameter key as a number. NaN is refused:
// it matches no position or time, and compares unequal to itself.
func parseFloat(w http.ResponseWriter, r *http.Request, key string) (float64, bool) {
	v, err := strconv.ParseFloat(r.URL.Query().Get(key), 64)
	if err != nil || math.IsNaN(v) {
		writeErr(w, http.StatusBadRequest, "bad or missing "+key)
		return 0, false
	}
	return v, true
}

func parseMBR(w http.ResponseWriter, r *http.Request) (geo.MBR, bool) {
	xmin, ok := parseFloat(w, r, "xmin")
	if !ok {
		return geo.MBR{}, false
	}
	ymin, ok := parseFloat(w, r, "ymin")
	if !ok {
		return geo.MBR{}, false
	}
	xmax, ok := parseFloat(w, r, "xmax")
	if !ok {
		return geo.MBR{}, false
	}
	ymax, ok := parseFloat(w, r, "ymax")
	if !ok {
		return geo.MBR{}, false
	}
	return geo.NewMBR(geo.Point{X: xmin, Y: ymin}, geo.Point{X: xmax, Y: ymax}), true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// statusWriter captures the response status for the endpoint metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// endpointMetrics are lock-free per-endpoint latency counters.
type endpointMetrics struct {
	count   atomic.Uint64
	errs    atomic.Uint64
	totalNS atomic.Int64
	maxNS   atomic.Int64
}

func (m *endpointMetrics) observe(d time.Duration, status int) {
	m.count.Add(1)
	if status >= 400 {
		m.errs.Add(1)
	}
	ns := d.Nanoseconds()
	m.totalNS.Add(ns)
	for {
		cur := m.maxNS.Load()
		if ns <= cur || m.maxNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// endpointSummary is the JSON view of one endpoint's counters.
type endpointSummary struct {
	Count  uint64 `json:"count"`
	Errors uint64 `json:"errors"`
	MeanUS int64  `json:"mean_us"`
	MaxUS  int64  `json:"max_us"`
}

func (m *endpointMetrics) summary() endpointSummary {
	n := m.count.Load()
	s := endpointSummary{
		Count:  n,
		Errors: m.errs.Load(),
		MaxUS:  m.maxNS.Load() / 1e3,
	}
	if n > 0 {
		s.MeanUS = m.totalNS.Load() / int64(n) / 1e3
	}
	return s
}
