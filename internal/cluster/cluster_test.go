// Cluster battery: a partitioned 2-node fleet behind the router must be
// observationally identical to one node holding the whole fleet — byte for
// byte on every query surface — and must degrade honestly (206 + missing
// list) when a partition is dark. The tests live in an external package so
// they can drive the real press facade through the same stacks pressd and
// pressr serve.
package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"press"
)

type fixture struct {
	ds  *press.Dataset
	sys *press.System
}

var (
	fxOnce sync.Once
	fx     *fixture
	fxErr  error
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fxOnce.Do(func() { fxErr = buildFixture() })
	if fxErr != nil {
		t.Fatal(fxErr)
	}
	return fx
}

func buildFixture() error {
	opt := press.DefaultDatasetOptions(24)
	opt.City.Rows, opt.City.Cols = 6, 6
	ds, err := press.GenerateDataset(opt)
	if err != nil {
		return err
	}
	cfg := press.DefaultConfig()
	cfg.TSND, cfg.NSTD = 50, 30
	sys, err := press.NewSystem(ds.Graph, ds.Trips[:12], cfg)
	if err != nil {
		return err
	}
	fx = &fixture{ds: ds, sys: sys}
	return nil
}

// node is one pressd-shaped member of a test cluster.
type node struct {
	ts  *httptest.Server
	srv *press.Server
}

// newNode builds a server claiming node index of nodes and serves it. With
// nodes <= 1 it is a plain single-node server.
func newNode(t *testing.T, fxt *fixture, nodes, index int) *node {
	t.Helper()
	st, err := press.CreateShardedFleetStore(t.TempDir()+"/fleet", 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fxt.sys.NewServer(t.Context(), st, press.ServerOptions{
		Cluster: press.ClusterOptions{Nodes: nodes, NodeIndex: index},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		st.Close()
	})
	return &node{ts: ts, srv: srv}
}

// newCluster stands up n nodes plus a router over them. Probing is disabled
// so tests flip health deterministically via SetNodeHealth; retries use a
// 1ms backoff to keep the battery fast.
func newCluster(t *testing.T, fxt *fixture, n int) (*press.ClusterRouter, *httptest.Server, []*node) {
	t.Helper()
	nodes := make([]*node, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		nodes[i] = newNode(t, fxt, n, i)
		addrs[i] = nodes[i].ts.URL
	}
	topo, err := press.NewClusterTopology(addrs)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := press.NewClusterRouter(topo, press.ClusterRouterOptions{
		ProbeEvery:   -1, // deterministic health via SetNodeHealth
		Retries:      2,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return rt, ts, nodes
}

// getRaw fetches url and returns the status plus the exact body bytes.
func getRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// encodeFleet packs the whole ground-truth fleet into bulk wire bodies,
// batchSize vehicles per frame, several frames per body.
func encodeFleet(t *testing.T, fxt *fixture, batchSize int) [][]byte {
	t.Helper()
	var bodies [][]byte
	var enc press.WireEncoder
	for i, tr := range fxt.ds.Truth {
		enc.StartGroup(uint64(i), true)
		err := tr.Replay(
			func(e press.EdgeID) error { enc.Edge(e); return nil },
			func(p press.TemporalEntry) error { enc.Sample(p); return nil },
		)
		if err != nil {
			t.Fatal(err)
		}
		if (i+1)%batchSize == 0 || i == len(fxt.ds.Truth)-1 {
			// Finish returns the encoder's own buffer — copy before Reset.
			bodies = append(bodies, append([]byte(nil), enc.Finish()...))
			enc.Reset()
		}
	}
	return bodies
}

type wireResp struct {
	Accepted int    `json:"accepted"`
	Frames   int    `json:"frames"`
	Flushed  int    `json:"flushed"`
	Error    string `json:"error,omitempty"`
}

// postWire POSTs one bulk binary body and decodes the summary.
func postWire(t *testing.T, url string, body []byte) (int, wireResp) {
	t.Helper()
	resp, err := http.Post(url, press.WireContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wr wireResp
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatalf("decoding wire ingest response: %v", err)
	}
	return resp.StatusCode, wr
}

// ingestWire pushes the pre-encoded fleet through base's bulk endpoint.
func ingestWire(t *testing.T, base string, bodies [][]byte) (accepted, flushed int) {
	t.Helper()
	for _, body := range bodies {
		status, wr := postWire(t, base+"/v1/ingest", body)
		if status != http.StatusOK {
			t.Fatalf("bulk ingest: status %d (%s)", status, wr.Error)
		}
		accepted += wr.Accepted
		flushed += wr.Flushed
	}
	return accepted, flushed
}

// temporalOf extracts a trajectory's temporal sequence.
func temporalOf(t *testing.T, tr *press.Trajectory) []press.TemporalEntry {
	t.Helper()
	var out []press.TemporalEntry
	err := tr.Replay(
		func(press.EdgeID) error { return nil },
		func(p press.TemporalEntry) error { out = append(out, p); return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// f formats a float for a URL exactly; the escape keeps an exponent's "+"
// from decoding into a space server-side.
func f(v float64) string { return url.QueryEscape(strconv.FormatFloat(v, 'g', -1, 64)) }

// A 2-node cluster reached through the router must answer every query
// surface byte-identical to a single node holding the whole fleet — the
// partition is an implementation detail the client cannot observe. The
// same bulk wire bodies feed both deployments: the single node swallows
// them whole, the router must split them per owner without re-encoding.
func TestClusterMatchesSingleNode(t *testing.T) {
	fxt := getFixture(t)
	single := newNode(t, fxt, 1, 0)
	_, routerTS, _ := newCluster(t, fxt, 2)

	bodies := encodeFleet(t, fxt, 8)
	totalPts := 0
	for _, tr := range fxt.ds.Truth {
		err := tr.Replay(
			func(press.EdgeID) error { totalPts++; return nil },
			func(press.TemporalEntry) error { totalPts++; return nil },
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	accS, flS := ingestWire(t, single.ts.URL, bodies)
	accC, flC := ingestWire(t, routerTS.URL, bodies)
	if accS != totalPts || accC != totalPts {
		t.Fatalf("accepted: single %d, cluster %d, want %d", accS, accC, totalPts)
	}
	if flS != len(fxt.ds.Truth) || flC != len(fxt.ds.Truth) {
		t.Fatalf("flushed: single %d, cluster %d, want %d", flS, flC, len(fxt.ds.Truth))
	}

	compare := func(path string) []byte {
		t.Helper()
		sStatus, sBody := getRaw(t, single.ts.URL+path)
		cStatus, cBody := getRaw(t, routerTS.URL+path)
		if sStatus != cStatus {
			t.Fatalf("%s: status single=%d cluster=%d (%s vs %s)", path, sStatus, cStatus, sBody, cBody)
		}
		if !bytes.Equal(sBody, cBody) {
			t.Fatalf("%s: bodies differ:\n single: %s\ncluster: %s", path, sBody, cBody)
		}
		return sBody
	}

	for i, tr := range fxt.ds.Truth {
		temporal := temporalOf(t, tr)
		tmid := (temporal[0].T + temporal[len(temporal)-1].T) / 2

		// whereat — then reuse the agreed position to probe whenat.
		body := compare(fmt.Sprintf("/v1/whereat?id=%d&t=%s", i, f(tmid)))
		var pos struct {
			X float64 `json:"x"`
			Y float64 `json:"y"`
		}
		if err := json.Unmarshal(body, &pos); err != nil {
			t.Fatalf("vehicle %d: whereat body %q: %v", i, body, err)
		}
		compare(fmt.Sprintf("/v1/whenat?id=%d&x=%s&y=%s", i, f(pos.X), f(pos.Y)))

		// per-vehicle range check around that position.
		compare(fmt.Sprintf("/v1/range?id=%d&t1=%s&t2=%s&xmin=%s&ymin=%s&xmax=%s&ymax=%s",
			i, f(temporal[0].T), f(temporal[len(temporal)-1].T),
			f(pos.X-200), f(pos.Y-200), f(pos.X+200), f(pos.Y+200)))
	}

	// mindistance: exercise both a same-owner and a cross-owner pair (the
	// cross-owner route ships b's record between nodes).
	var sameB, crossB uint64
	for b := uint64(1); int(b) < len(fxt.ds.Truth); b++ {
		if press.ClusterOwner(b, 2) == press.ClusterOwner(0, 2) {
			if sameB == 0 {
				sameB = b
			}
		} else if crossB == 0 {
			crossB = b
		}
	}
	if sameB == 0 || crossB == 0 {
		t.Fatalf("fleet of %d has no same/cross owner pair vs vehicle 0", len(fxt.ds.Truth))
	}
	compare(fmt.Sprintf("/v1/mindistance?a=0&b=%d", sameB))
	compare(fmt.Sprintf("/v1/mindistance?a=0&b=%d", crossB))
	// Unknown vehicles must fail identically too (the single-known case; the
	// both-unknown case is a documented divergence in which name surfaces).
	compare(fmt.Sprintf("/v1/mindistance?a=0&b=%d", uint64(99999)))

	// Fleet-wide range over everything: a full scatter-gather must emit the
	// single node's exact body ({"ids":[...]}), no partial markers.
	fleetQ := fmt.Sprintf("/v1/range?t1=0&t2=%s&xmin=%s&ymin=%s&xmax=%s&ymax=%s",
		f(1e12), f(-1e9), f(-1e9), f(1e9), f(1e9))
	body := compare(fleetQ)
	var fleet struct {
		IDs     []uint64 `json:"ids"`
		Partial bool     `json:"partial"`
	}
	if err := json.Unmarshal(body, &fleet); err != nil {
		t.Fatal(err)
	}
	if fleet.Partial || len(fleet.IDs) != len(fxt.ds.Truth) {
		t.Fatalf("fleet range: got %d ids (partial=%v), want %d", len(fleet.IDs), fleet.Partial, len(fxt.ds.Truth))
	}
}

// partialResp is the degraded scatter-gather body.
type partialResp struct {
	IDs     []uint64 `json:"ids"`
	Missing []int    `json:"missing"`
	Partial bool     `json:"partial"`
}

// Killing one node mid-traffic must degrade fleet queries to 206 with the
// dark partition named, keep the surviving partition's answers flowing, and
// gate single-vehicle traffic for the dead node's vehicles with 503.
func TestClusterPartialFailure(t *testing.T) {
	fxt := getFixture(t)
	rt, routerTS, nodes := newCluster(t, fxt, 2)
	ingestWire(t, routerTS.URL, encodeFleet(t, fxt, 8))

	fleetQ := fmt.Sprintf("%s/v1/range?t1=0&t2=%s&xmin=%s&ymin=%s&xmax=%s&ymax=%s",
		routerTS.URL, f(1e12), f(-1e9), f(-1e9), f(1e9), f(1e9))

	var all partialResp
	if status, body := getRaw(t, fleetQ); status != http.StatusOK {
		t.Fatalf("healthy fleet range: status %d", status)
	} else if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}

	var survivors []uint64
	for _, id := range all.IDs {
		if press.ClusterOwner(id, 2) == 0 {
			survivors = append(survivors, id)
		}
	}

	// Kill node 1 two ways at once: mark it unhealthy (probe verdict) and
	// actually close its listener, so both the skip path and any in-flight
	// transport path land in the same missing report.
	rt.SetNodeHealth(1, false)
	nodes[1].ts.Close()

	status, body := getRaw(t, fleetQ)
	if status != http.StatusPartialContent {
		t.Fatalf("degraded fleet range: status %d, want 206 (%s)", status, body)
	}
	var part partialResp
	if err := json.Unmarshal(body, &part); err != nil {
		t.Fatal(err)
	}
	if !part.Partial || len(part.Missing) != 1 || part.Missing[0] != 1 {
		t.Fatalf("degraded fleet range: partial=%v missing=%v", part.Partial, part.Missing)
	}
	if len(part.IDs) != len(survivors) {
		t.Fatalf("degraded fleet range: %d ids, want node 0's %d", len(part.IDs), len(survivors))
	}
	for i, id := range part.IDs {
		if id != survivors[i] {
			t.Fatalf("degraded fleet range: ids[%d]=%d, want %d", i, id, survivors[i])
		}
	}

	// Single-vehicle traffic for the dead partition gates with 503; the
	// surviving partition keeps answering.
	var deadID, liveID uint64
	found := 0
	for id := uint64(0); int(id) < len(fxt.ds.Truth); id++ {
		if press.ClusterOwner(id, 2) == 1 && found&1 == 0 {
			deadID, found = id, found|1
		}
		if press.ClusterOwner(id, 2) == 0 && found&2 == 0 {
			liveID, found = id, found|2
		}
	}
	if found != 3 {
		t.Fatal("fleet does not span both partitions")
	}
	tmid := temporalOf(t, fxt.ds.Truth[deadID])[0].T
	if status, _ := getRaw(t, fmt.Sprintf("%s/v1/whereat?id=%d&t=%s", routerTS.URL, deadID, f(tmid))); status != http.StatusServiceUnavailable {
		t.Fatalf("dead-partition whereat: status %d, want 503", status)
	}
	tlive := temporalOf(t, fxt.ds.Truth[liveID])[0].T
	if status, _ := getRaw(t, fmt.Sprintf("%s/v1/whereat?id=%d&t=%s", routerTS.URL, liveID, f(tlive))); status != http.StatusOK {
		t.Fatalf("live-partition whereat: status %d, want 200", status)
	}

	// Bulk ingest touching the dead owner is refused whole (all-or-nothing
	// admission), so the client can replay the batch after recovery.
	if status, wr := postWire(t, routerTS.URL+"/v1/ingest", encodeFleet(t, fxt, 8)[0]); status != http.StatusServiceUnavailable {
		t.Fatalf("bulk ingest with dead owner: status %d (%s)", status, wr.Error)
	}

	// Health endpoints reflect the loss; the router itself stays ready while
	// one partition answers.
	var hz struct {
		Healthy int `json:"healthy"`
		Nodes   int `json:"nodes"`
	}
	if status, body := getRaw(t, routerTS.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("router readyz with one survivor: status %d", status)
	} else if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	} else if hz.Healthy != 1 || hz.Nodes != 2 {
		t.Fatalf("router readyz: %+v", hz)
	}
	rt.SetNodeHealth(0, false)
	if status, _ := getRaw(t, routerTS.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("router readyz with zero survivors: status %d, want 503", status)
	}
}

// A node that answers 503 a few times and then recovers (a restart, a
// drain window) must be absorbed by the router's retry loop: the client
// sees one clean 200, and the retry counters record the flap.
func TestClusterRetryThenSuccess(t *testing.T) {
	fxt := getFixture(t)
	inner := newNode(t, fxt, 1, 0)
	ingestWire(t, inner.ts.URL, encodeFleet(t, fxt, 8))

	// Flapping front: first two requests fail with 503, the rest pass through.
	var hits atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"restarting"}`)
			return
		}
		inner.srv.Handler().ServeHTTP(w, r)
	}))
	defer flaky.Close()

	topo, err := press.NewClusterTopology([]string{flaky.URL})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := press.NewClusterRouter(topo, press.ClusterRouterOptions{
		ProbeEvery:   -1,
		Retries:      3,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	routerTS := httptest.NewServer(rt.Handler())
	defer func() {
		routerTS.Close()
		rt.Close()
	}()

	tmid := temporalOf(t, fxt.ds.Truth[0])[0].T
	status, body := getRaw(t, fmt.Sprintf("%s/v1/whereat?id=0&t=%s", routerTS.URL, f(tmid)))
	if status != http.StatusOK {
		t.Fatalf("whereat through flapping node: status %d (%s)", status, body)
	}
	if hits.Load() != 3 {
		t.Fatalf("node saw %d attempts, want 3 (two 503s + success)", hits.Load())
	}

	var stats struct {
		Nodes []struct {
			Retries uint64 `json:"retries"`
			Errors  uint64 `json:"errors"`
		} `json:"nodes"`
	}
	if s, b := getRaw(t, routerTS.URL+"/v1/stats"); s != http.StatusOK {
		t.Fatalf("router stats: %d", s)
	} else if err := json.Unmarshal(b, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Nodes[0].Retries != 2 || stats.Nodes[0].Errors != 2 {
		t.Fatalf("router stats after flap: %+v", stats.Nodes[0])
	}

	// Retries are bounded: a node that never recovers surfaces its own 503
	// after the budget, not an infinite loop.
	hits.Store(-1 << 30)
	if status, _ := getRaw(t, fmt.Sprintf("%s/v1/whereat?id=0&t=%s", routerTS.URL, f(tmid))); status != http.StatusServiceUnavailable {
		t.Fatalf("never-recovering node: status %d, want relayed 503", status)
	}

	// The router's own metrics expose the per-node counters.
	if _, body := getRaw(t, routerTS.URL+"/metrics"); !strings.Contains(string(body), `press_router_node_retries_total{node="0"}`) {
		t.Fatal("router /metrics missing per-node retry counter")
	}
}

// A vehicle pushed at the wrong node must bounce with 421 naming the real
// owner — on the JSON path, the bulk wire path and the query path — and
// succeed verbatim when redirected to the named owner.
func TestMisroutedIngest421(t *testing.T) {
	fxt := getFixture(t)
	_, _, nodes := newCluster(t, fxt, 2)

	// Find a vehicle owned by node 1 and aim it at node 0.
	var id uint64
	for ; press.ClusterOwner(id, 2) != 1; id++ {
	}
	wrong, right := nodes[0], nodes[1]

	jsonBody := []byte(`{"points":[{"edge":0}],"flush":false}`)
	resp, err := http.Post(fmt.Sprintf("%s/v1/ingest/%d", wrong.ts.URL, id), "application/json", bytes.NewReader(jsonBody))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("misrouted JSON ingest: status %d (%s)", resp.StatusCode, raw)
	}
	var mis struct {
		Error string `json:"error"`
		Owner int    `json:"owner"`
		Node  int    `json:"node"`
		Nodes int    `json:"nodes"`
	}
	if err := json.Unmarshal(raw, &mis); err != nil {
		t.Fatalf("421 body %q: %v", raw, err)
	}
	if mis.Owner != 1 || mis.Node != 0 || mis.Nodes != 2 || mis.Error == "" {
		t.Fatalf("421 body: %+v", mis)
	}

	// The round trip: redirecting to the named owner succeeds.
	resp2, err := http.Post(fmt.Sprintf("%s/v1/ingest/%d", nodes[mis.Owner].ts.URL, id), "application/json", bytes.NewReader(jsonBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("redirected ingest: status %d", resp2.StatusCode)
	}

	// Bulk wire: a frame holding a foreign group bounces the same way.
	var enc press.WireEncoder
	enc.StartGroup(id, false)
	enc.Edge(0)
	if status, _ := postWire(t, wrong.ts.URL+"/v1/ingest", enc.Finish()); status != http.StatusMisdirectedRequest {
		t.Fatalf("misrouted wire ingest: status %d, want 421", status)
	}

	// Queries misroute too — reading a foreign vehicle would silently answer
	// "not found" instead of surfacing the topology error.
	if status, _ := getRaw(t, fmt.Sprintf("%s/v1/whereat?id=%d&t=0", wrong.ts.URL, id)); status != http.StatusMisdirectedRequest {
		t.Fatalf("misrouted whereat: status %d, want 421", status)
	}
	if status, _ := getRaw(t, fmt.Sprintf("%s/v1/whereat?id=%d&t=0", right.ts.URL, id)); status == http.StatusMisdirectedRequest {
		t.Fatal("owner refused its own vehicle")
	}

	// readyz vs healthz: both up while serving; after Shutdown the node
	// reports not ready (readiness is the router's routing signal).
	if status, _ := getRaw(t, wrong.ts.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("readyz while serving: %d", status)
	}
	if status, _ := getRaw(t, wrong.ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz while serving: %d", status)
	}
	wrong.srv.SetReady(false)
	if status, _ := getRaw(t, wrong.ts.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz after SetReady(false): %d, want 503", status)
	}
	if status, _ := getRaw(t, wrong.ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz after SetReady(false): %d — liveness must not follow readiness", status)
	}
}
