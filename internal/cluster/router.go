package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"press/internal/httpx"
	"press/internal/wire"
)

// Options tunes the Router. The zero value selects the documented defaults.
type Options struct {
	// Client performs the node requests; nil builds one with a pooled
	// transport sized for the topology.
	Client *http.Client
	// NodeTimeout bounds one attempt against one node (default 5s). The
	// incoming request's own context still applies on top.
	NodeTimeout time.Duration
	// Retries is how many times a failed attempt is retried (default 2, so
	// 3 attempts total; negative = no retries). Connect errors are always
	// retryable; 5xx responses are retried for idempotent reads, and for
	// ingest only 503 (the drain gate refuses before any mutation, so the
	// replay cannot double-apply).
	Retries int
	// RetryBackoff is the base of the jittered exponential backoff between
	// attempts (default 25ms): attempt k sleeps base·2^(k-1)·[0.5,1.5).
	RetryBackoff time.Duration
	// ProbeEvery is the /readyz health-probe cadence (default 1s; negative
	// disables probing and every node stays routed).
	ProbeEvery time.Duration
	// ProbeTimeout bounds one probe (default 500ms).
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive probe failures mark a node
	// unhealthy (default 2). One success marks it healthy again.
	FailThreshold int
	// MaxFrameBytes caps one inbound wire frame's payload on the bulk
	// ingest split path (default wire.DefaultMaxPayload).
	MaxFrameBytes int
	// MaxBodyBytes caps one buffered request or relayed response body
	// (default 64 MiB). The router buffers bodies so retries can replay
	// them byte-for-byte.
	MaxBodyBytes int64
}

const (
	defaultNodeTimeout   = 5 * time.Second
	defaultRetries       = 2
	defaultRetryBackoff  = 25 * time.Millisecond
	defaultProbeEvery    = time.Second
	defaultProbeTimeout  = 500 * time.Millisecond
	defaultFailThreshold = 2
	defaultMaxBody       = 64 << 20
)

// nodeState is the router's view of one node: health bit plus the per-node
// counters /v1/stats and /metrics expose.
type nodeState struct {
	addr       string
	healthy    atomic.Bool
	failStreak int // prober-goroutine private

	requests atomic.Uint64 // attempts sent (retries included)
	errors   atomic.Uint64 // transport failures + 5xx responses
	retries  atomic.Uint64 // attempts beyond the first
	totalNS  atomic.Int64  // cumulative attempt latency
}

// Router is the stateless scatter-gather front of a static cluster. It
// owns no fleet state — only the topology, a health bit per node and
// counters — so any number of routers can run side by side.
type Router struct {
	topo   *Topology
	opt    Options
	client *http.Client
	mux    *http.ServeMux
	nodes  []*nodeState
	start  time.Time

	ctx    context.Context // prober lifetime
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	draining bool
	httpSrv  *http.Server

	metrics map[string]*httpx.Metrics
}

// NewRouter assembles a router over topo and starts its health probers.
// Stop with Shutdown/Close (also required when the router is used via
// Handler only — the probers are goroutines).
func NewRouter(topo *Topology, opt Options) (*Router, error) {
	if topo == nil || topo.Nodes() == 0 {
		return nil, errors.New("cluster: nil or empty topology")
	}
	if opt.NodeTimeout <= 0 {
		opt.NodeTimeout = defaultNodeTimeout
	}
	if opt.Retries == 0 {
		opt.Retries = defaultRetries
	}
	if opt.Retries < 0 {
		opt.Retries = 0
	}
	if opt.RetryBackoff <= 0 {
		opt.RetryBackoff = defaultRetryBackoff
	}
	if opt.ProbeEvery == 0 {
		opt.ProbeEvery = defaultProbeEvery
	}
	if opt.ProbeTimeout <= 0 {
		opt.ProbeTimeout = defaultProbeTimeout
	}
	if opt.FailThreshold <= 0 {
		opt.FailThreshold = defaultFailThreshold
	}
	if opt.MaxFrameBytes <= 0 {
		opt.MaxFrameBytes = wire.DefaultMaxPayload
	}
	if opt.MaxBodyBytes <= 0 {
		opt.MaxBodyBytes = defaultMaxBody
	}
	rt := &Router{
		topo:    topo,
		opt:     opt,
		client:  opt.Client,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		metrics: make(map[string]*httpx.Metrics),
	}
	if rt.client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 16
		rt.client = &http.Client{Transport: tr}
	}
	rt.nodes = make([]*nodeState, topo.Nodes())
	for i := range rt.nodes {
		rt.nodes[i] = &nodeState{addr: topo.Addr(i)}
		rt.nodes[i].healthy.Store(true) // optimistic until the first probe says otherwise
	}
	rt.ctx, rt.cancel = context.WithCancel(context.Background())

	rt.route("POST /v1/ingest/{id}", "ingest", rt.handleIngest)
	rt.route("POST /v1/ingest", "ingest_wire", rt.handleIngestWire)
	rt.route("GET /v1/whereat", "whereat", rt.handleForwardByID("id"))
	rt.route("GET /v1/whenat", "whenat", rt.handleForwardByID("id"))
	rt.route("GET /v1/range", "range", rt.handleRange)
	rt.route("GET /v1/mindistance", "mindistance", rt.handleMinDistance)
	rt.route("GET /v1/stats", "stats", rt.handleStats)
	rt.route("GET /healthz", "healthz", rt.handleHealthz)
	rt.route("GET /readyz", "readyz", rt.handleReadyz)
	rt.route("GET /metrics", "metrics", rt.handleMetrics)

	if opt.ProbeEvery > 0 {
		for i := range rt.nodes {
			rt.wg.Add(1)
			go rt.probe(i)
		}
	}
	return rt, nil
}

func (rt *Router) route(pattern, name string, h http.HandlerFunc) {
	m := &httpx.Metrics{}
	rt.metrics[name] = m
	rt.mux.HandleFunc(pattern, m.Instrument(h))
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Topology returns the router's static topology.
func (rt *Router) Topology() *Topology { return rt.topo }

// Healthy reports the current health bit of node i.
func (rt *Router) Healthy(i int) bool { return rt.nodes[i].healthy.Load() }

// SetNodeHealth overrides node i's health bit — the operational "drain
// that node now" lever (the next successful probe flips it back), and the
// deterministic hook the partial-failure tests use.
func (rt *Router) SetNodeHealth(i int, healthy bool) { rt.nodes[i].healthy.Store(healthy) }

// probe is node i's health loop: GET /readyz every ProbeEvery; after
// FailThreshold consecutive failures the node is unhealthy until the next
// success.
func (rt *Router) probe(i int) {
	defer rt.wg.Done()
	ns := rt.nodes[i]
	tick := time.NewTicker(rt.opt.ProbeEvery)
	defer tick.Stop()
	for {
		select {
		case <-rt.ctx.Done():
			return
		case <-tick.C:
		}
		ctx, cancel := context.WithTimeout(rt.ctx, rt.opt.ProbeTimeout)
		ok := false
		if req, err := http.NewRequestWithContext(ctx, http.MethodGet, ns.addr+"/readyz", nil); err == nil {
			if resp, err := rt.client.Do(req); err == nil {
				_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
				ok = resp.StatusCode == http.StatusOK
			}
		}
		cancel()
		if ok {
			ns.failStreak = 0
			ns.healthy.Store(true)
		} else if ns.failStreak++; ns.failStreak >= rt.opt.FailThreshold {
			ns.healthy.Store(false)
		}
	}
}

// Serve accepts connections on ln until Shutdown (one listener per Router,
// like server.Server.Serve).
func (rt *Router) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: rt.mux}
	rt.mu.Lock()
	if rt.draining {
		rt.mu.Unlock()
		ln.Close()
		return errors.New("cluster: router already shut down")
	}
	if rt.httpSrv != nil {
		rt.mu.Unlock()
		ln.Close()
		return errors.New("cluster: Serve already called (wrap Handler() for extra listeners)")
	}
	rt.httpSrv = srv
	rt.mu.Unlock()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// ListenAndServe binds addr and calls Serve.
func (rt *Router) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return rt.Serve(ln)
}

// Shutdown stops the probers and drains the router's listener. The router
// holds no sessions, so there is nothing to flush — the nodes own the
// state. Idempotent.
func (rt *Router) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	rt.mu.Lock()
	if rt.draining {
		rt.mu.Unlock()
		return nil
	}
	rt.draining = true
	srv := rt.httpSrv
	rt.mu.Unlock()
	rt.cancel()
	rt.wg.Wait()
	if srv != nil {
		return srv.Shutdown(ctx)
	}
	return nil
}

// Close is Shutdown with no deadline.
func (rt *Router) Close() error { return rt.Shutdown(context.Background()) }

func (rt *Router) isDraining() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.draining
}

// --- forwarding core ---

// forwardResult is one buffered node response, replayable to the client.
type forwardResult struct {
	status int
	ctype  string
	body   []byte
}

// relay copies a node response to the client verbatim.
func relay(w http.ResponseWriter, res forwardResult) {
	if res.ctype != "" {
		w.Header().Set("Content-Type", res.ctype)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// backoff returns the jittered exponential sleep before retry attempt k
// (k >= 1): base·2^(k-1) scaled by a uniform [0.5, 1.5) factor, so a
// thundering herd of retries against a recovering node spreads out.
func (rt *Router) backoff(k int) time.Duration {
	d := rt.opt.RetryBackoff << (k - 1)
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// forward sends one request to node with bounded retries. Connect and
// transport errors are always retryable (the bodies are buffered, so a
// replay is byte-identical). A 5xx response is retryable when retry5xx
// (idempotent reads), and 503 is always retryable — the nodes' drain gate
// refuses before touching any state, so even an ingest replay after 503
// cannot double-apply. Any other status is the answer, relayed as-is
// (421s included: a misroute means topology disagreement, which retrying
// the same node cannot fix).
//
// On exhausted retries the last 5xx response is returned (err == nil) so
// the caller can relay the node's own error; a final transport failure
// returns err != nil and the caller answers 502.
func (rt *Router) forward(ctx context.Context, node int, method, pathAndQuery, contentType string, body []byte, retry5xx bool) (forwardResult, error) {
	ns := rt.nodes[node]
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			ns.retries.Add(1)
			select {
			case <-time.After(rt.backoff(attempt)):
			case <-ctx.Done():
				if lastErr == nil {
					lastErr = ctx.Err()
				}
				return forwardResult{}, lastErr
			}
		}
		res, err := rt.attempt(ctx, ns, method, pathAndQuery, contentType, body)
		if err == nil {
			retryable := res.status >= 500 && (retry5xx || res.status == http.StatusServiceUnavailable)
			if !retryable || attempt >= rt.opt.Retries {
				return res, nil
			}
		} else {
			lastErr = err
			if attempt >= rt.opt.Retries || ctx.Err() != nil {
				return forwardResult{}, lastErr
			}
		}
	}
}

// attempt performs a single node request, buffering the response.
func (rt *Router) attempt(ctx context.Context, ns *nodeState, method, pathAndQuery, contentType string, body []byte) (forwardResult, error) {
	actx, cancel := context.WithTimeout(ctx, rt.opt.NodeTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, ns.addr+pathAndQuery, rd)
	if err != nil {
		return forwardResult{}, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	ns.requests.Add(1)
	t0 := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		ns.totalNS.Add(time.Since(t0).Nanoseconds())
		ns.errors.Add(1)
		return forwardResult{}, err
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, rt.opt.MaxBodyBytes+1))
	resp.Body.Close()
	ns.totalNS.Add(time.Since(t0).Nanoseconds())
	if err != nil {
		ns.errors.Add(1)
		return forwardResult{}, err
	}
	if int64(len(b)) > rt.opt.MaxBodyBytes {
		return forwardResult{}, fmt.Errorf("cluster: node %s response exceeds %d bytes", ns.addr, rt.opt.MaxBodyBytes)
	}
	if resp.StatusCode >= 500 {
		ns.errors.Add(1)
	}
	return forwardResult{status: resp.StatusCode, ctype: resp.Header.Get("Content-Type"), body: b}, nil
}

// gate refuses a single-vehicle request aimed at an unhealthy node: the
// health-gated 503 the probe machinery exists for. Fleet queries do not
// gate — they skip and report partial instead.
func (rt *Router) gate(w http.ResponseWriter, node int) bool {
	if rt.nodes[node].healthy.Load() {
		return true
	}
	httpx.WriteErr(w, http.StatusServiceUnavailable,
		fmt.Sprintf("cluster: node %d (%s) is failing health probes", node, rt.nodes[node].addr))
	return false
}

// readBody buffers the request body within the router's cap.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.opt.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpx.WriteErr(w, http.StatusRequestEntityTooLarge, err.Error())
		} else {
			httpx.WriteErr(w, http.StatusBadRequest, "bad body: "+err.Error())
		}
		return nil, false
	}
	return body, true
}

// --- handlers ---

// handleIngest forwards POST /v1/ingest/{id} — JSON or single-vehicle wire
// body alike — to the owner, bytes untouched.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpx.WriteErr(w, http.StatusBadRequest, "bad vehicle id")
		return
	}
	node := rt.topo.Owner(id)
	if !rt.gate(w, node) {
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	res, err := rt.forward(r.Context(), node, http.MethodPost, r.URL.RequestURI(),
		r.Header.Get("Content-Type"), body, false)
	if err != nil {
		httpx.WriteErr(w, http.StatusBadGateway, fmt.Sprintf("cluster: node %d: %v", node, err))
		return
	}
	relay(w, res)
}

// handleForwardByID forwards an idempotent single-vehicle GET to the node
// owning the vehicle named by query parameter key.
func (rt *Router) handleForwardByID(key string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.URL.Query().Get(key), 10, 64)
		if err != nil {
			httpx.WriteErr(w, http.StatusBadRequest, "bad or missing "+key)
			return
		}
		node := rt.topo.Owner(id)
		if !rt.gate(w, node) {
			return
		}
		res, err := rt.forward(r.Context(), node, http.MethodGet, r.URL.RequestURI(), "", nil, true)
		if err != nil {
			httpx.WriteErr(w, http.StatusBadGateway, fmt.Sprintf("cluster: node %d: %v", node, err))
			return
		}
		relay(w, res)
	}
}

// handleRange forwards ?id= range checks to the owner and scatter-gathers
// the fleet form (no id) across every node.
func (rt *Router) handleRange(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("id") != "" {
		rt.handleForwardByID("id")(w, r)
		return
	}
	rt.scatterRange(w, r)
}

// scatterRange fans the fleet range out to every healthy node in parallel
// and merges the per-partition id lists. Ownership makes the partitions
// disjoint, so the merge is a sort — no dedup, no recheck. A full gather
// answers exactly the single-node body ({"ids":[...]}); any skipped or
// failed node degrades the answer to 206 with "partial":true and the
// missing node indexes, so the caller knows which partitions are dark
// instead of mistaking a partial fleet for a quiet one.
func (rt *Router) scatterRange(w http.ResponseWriter, r *http.Request) {
	n := rt.topo.Nodes()
	uri := r.URL.RequestURI()
	ids := make([][]uint64, n)
	failed := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if !rt.nodes[i].healthy.Load() {
			failed[i] = true
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := rt.forward(r.Context(), i, http.MethodGet, uri, "", nil, true)
			if err != nil || res.status != http.StatusOK {
				failed[i] = true
				return
			}
			var body struct {
				IDs []uint64 `json:"ids"`
			}
			if err := json.Unmarshal(res.body, &body); err != nil {
				failed[i] = true
				return
			}
			ids[i] = body.IDs
		}(i)
	}
	wg.Wait()

	var merged []uint64
	var missing []int
	for i := 0; i < n; i++ {
		if failed[i] {
			missing = append(missing, i)
			continue
		}
		merged = append(merged, ids[i]...)
	}
	sort.Slice(merged, func(a, b int) bool { return merged[a] < merged[b] })
	if merged == nil {
		merged = []uint64{}
	}
	if len(missing) == 0 {
		httpx.WriteJSON(w, http.StatusOK, map[string]any{"ids": merged})
		return
	}
	httpx.WriteJSON(w, http.StatusPartialContent, map[string]any{
		"ids": merged, "missing": missing, "partial": true,
	})
}

// handleMinDistance routes the pairwise §5.4 query. Same owner: forward
// verbatim. Different owners: fetch b's record from its owner and ship it
// to a's owner (POST /v1/mindistance?a=), which computes with (a, b)
// argument order preserved — the routed answer matches the single-node one.
// (One knowable divergence: when BOTH vehicles are missing the single node
// reports a and the router, which touches b's owner first, reports b.)
func (rt *Router) handleMinDistance(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	a, errA := strconv.ParseUint(q.Get("a"), 10, 64)
	b, errB := strconv.ParseUint(q.Get("b"), 10, 64)
	if errA != nil {
		httpx.WriteErr(w, http.StatusBadRequest, "bad or missing a")
		return
	}
	if errB != nil {
		httpx.WriteErr(w, http.StatusBadRequest, "bad or missing b")
		return
	}
	na, nb := rt.topo.Owner(a), rt.topo.Owner(b)
	if !rt.gate(w, na) {
		return
	}
	if na == nb {
		res, err := rt.forward(r.Context(), na, http.MethodGet, r.URL.RequestURI(), "", nil, true)
		if err != nil {
			httpx.WriteErr(w, http.StatusBadGateway, fmt.Sprintf("cluster: node %d: %v", na, err))
			return
		}
		relay(w, res)
		return
	}
	if !rt.gate(w, nb) {
		return
	}
	rec, err := rt.forward(r.Context(), nb, http.MethodGet,
		"/v1/record?id="+strconv.FormatUint(b, 10), "", nil, true)
	if err != nil {
		httpx.WriteErr(w, http.StatusBadGateway, fmt.Sprintf("cluster: node %d: %v", nb, err))
		return
	}
	if rec.status != http.StatusOK {
		relay(w, rec) // b unknown (404) or b's owner failing: the node's answer stands
		return
	}
	res, err := rt.forward(r.Context(), na, http.MethodPost,
		"/v1/mindistance?a="+strconv.FormatUint(a, 10),
		"application/octet-stream", rec.body, true)
	if err != nil {
		httpx.WriteErr(w, http.StatusBadGateway, fmt.Sprintf("cluster: node %d: %v", na, err))
		return
	}
	relay(w, res)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	healthy := 0
	for _, ns := range rt.nodes {
		if ns.healthy.Load() {
			healthy++
		}
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": int64(time.Since(rt.start).Seconds()),
		"nodes":    len(rt.nodes),
		"healthy":  healthy,
	})
}

// handleReadyz: the router can do useful work while at least one partition
// answers; with zero healthy nodes it reports not ready so an LB drops it.
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	healthy := 0
	for _, ns := range rt.nodes {
		if ns.healthy.Load() {
			healthy++
		}
	}
	status, code := "ready", http.StatusOK
	if rt.isDraining() || healthy == 0 {
		status, code = "not ready", http.StatusServiceUnavailable
	}
	httpx.WriteJSON(w, code, map[string]any{"status": status, "healthy": healthy, "nodes": len(rt.nodes)})
}
