// End-to-end battery over the HTTP serving layer: a generator fleet is
// ingested over the wire and every query endpoint must answer exactly what
// the in-process facade answers. The tests live in an external package so
// they can drive the real press facade (System, sharded store) through the
// same handler stack pressd serves.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"press"
)

// fixture is the shared read-only serving system: a synthetic fleet and a
// System booted the way pressd boots one. Tests create their own stores and
// servers over it.
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
	opt := press.DefaultDatasetOptions(32)
	opt.City.Rows, opt.City.Cols = 8, 8
	ds, err := press.GenerateDataset(opt)
	if err != nil {
		return err
	}
	cfg := press.DefaultConfig()
	cfg.TSND, cfg.NSTD = 50, 30
	sys, err := press.NewSystem(ds.Graph, ds.Trips[:16], cfg)
	if err != nil {
		return err
	}
	fx = &fixture{ds: ds, sys: sys}
	return nil
}

// --- client-side wire types (mirroring the server's protocol) ---

type pointMsg struct {
	Edge   *int64     `json:"edge,omitempty"`
	Sample *sampleMsg `json:"sample,omitempty"`
}

type sampleMsg struct {
	D float64 `json:"d"`
	T float64 `json:"t"`
}

type ingestResp struct {
	Accepted int    `json:"accepted"`
	Flushed  bool   `json:"flushed"`
	Error    string `json:"error,omitempty"`
}

// points converts a trajectory into its wire-order observation stream.
func points(tr *press.Trajectory) []pointMsg {
	var pts []pointMsg
	_ = tr.Replay(
		func(e press.EdgeID) error {
			v := int64(e)
			pts = append(pts, pointMsg{Edge: &v})
			return nil
		},
		func(p press.TemporalEntry) error {
			pts = append(pts, pointMsg{Sample: &sampleMsg{D: p.D, T: p.T}})
			return nil
		},
	)
	return pts
}

func postIngest(t *testing.T, base string, id uint64, pts []pointMsg, flush bool) (int, ingestResp) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"points": pts, "flush": flush})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fmt.Sprintf("%s/v1/ingest/%d", base, id), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir ingestResp
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatalf("ingest %d: decoding response: %v", id, err)
	}
	return resp.StatusCode, ir
}

// getJSON fetches url and decodes the JSON body into v, returning the status.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

// f formats a float for a URL exactly (shortest round-tripping form), so the
// server parses back the identical float64 the facade comparison uses.
func f(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ingestFleet replays every ground-truth trajectory over HTTP in chunks,
// flushing each vehicle at end of trip.
func ingestFleet(t *testing.T, base string, fxt *fixture) {
	t.Helper()
	for i, tr := range fxt.ds.Truth {
		pts := points(tr)
		for len(pts) > 0 {
			n := 64
			if n > len(pts) {
				n = len(pts)
			}
			last := len(pts) == n
			status, resp := postIngest(t, base, uint64(i), pts[:n], last)
			if status != http.StatusOK {
				t.Fatalf("vehicle %d: ingest status %d (%s)", i, status, resp.Error)
			}
			if resp.Accepted != n {
				t.Fatalf("vehicle %d: accepted %d of %d", i, resp.Accepted, n)
			}
			if last && !resp.Flushed {
				t.Fatalf("vehicle %d: final chunk not flushed", i)
			}
			pts = pts[n:]
		}
	}
}

// statsDoc mirrors the /v1/stats document shape.
type statsDoc struct {
	SP struct {
		Kind      string `json:"kind"`
		HeapBytes int    `json:"heap_bytes"`
	} `json:"sp"`
	Sessions struct {
		Active  int    `json:"active"`
		Flushed uint64 `json:"flushed"`
		Points  uint64 `json:"points"`
	} `json:"sessions"`
	Store struct {
		Records int   `json:"records"`
		Shards  int   `json:"shards"`
		Bytes   int64 `json:"bytes"`
	} `json:"store"`
	Server struct {
		MaxConcurrent int `json:"max_concurrent"`
	} `json:"server"`
	Endpoints map[string]struct {
		Count  uint64 `json:"count"`
		Errors uint64 `json:"errors"`
		MeanUS int64  `json:"mean_us"`
		MaxUS  int64  `json:"max_us"`
	} `json:"endpoints"`
}

// Ingesting a fleet over HTTP must store records byte-identical to the
// facade's batch compression, and every query endpoint must answer exactly
// what the facade answers on the same inputs.
func TestEndToEndMatchesFacade(t *testing.T) {
	fxt := getFixture(t)
	st, err := press.CreateShardedFleetStore(t.TempDir()+"/fleet", 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fxt.sys.NewServer(context.Background(), st, press.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
		st.Close()
	}()

	if status := getJSON(t, ts.URL+"/healthz", nil); status != http.StatusOK {
		t.Fatalf("healthz = %d", status)
	}
	ingestFleet(t, ts.URL, fxt)

	n := len(fxt.ds.Truth)
	var stats statsDoc
	if status := getJSON(t, ts.URL+"/v1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats = %d", status)
	}
	if stats.SP.Kind != "hier" || stats.SP.HeapBytes == 0 {
		t.Fatalf("sp kind accounting: %+v, want hier with its search scratch bytes", stats.SP)
	}
	if stats.Sessions.Flushed != uint64(n) || stats.Sessions.Active != 0 {
		t.Fatalf("sessions: %+v, want %d flushed 0 active", stats.Sessions, n)
	}
	if stats.Store.Records != n || stats.Store.Shards != 4 || stats.Store.Bytes == 0 {
		t.Fatalf("store stats: %+v", stats.Store)
	}
	if m := stats.Endpoints["ingest"]; m.Count == 0 || m.Errors != 0 {
		t.Fatalf("ingest metrics: %+v", m)
	}

	for i, tr := range fxt.ds.Truth {
		id := uint64(i)
		want, err := fxt.sys.Compress(tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Get(id)
		if err != nil {
			t.Fatalf("vehicle %d not stored: %v", i, err)
		}
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("vehicle %d: stored bytes differ from facade compression", i)
		}

		// The facade comparisons below run on the *stored* record (the
		// codec keeps (d, t) as float32 pairs, so the unmarshalled values
		// the server queries differ in the low bits from the in-memory
		// pre-marshal record). HTTP and facade then see identical inputs
		// and must produce identical floats.
		tmid := (tr.Temporal[0].T + tr.Temporal[len(tr.Temporal)-1].T) / 2

		// whereat
		wantPos, err := fxt.sys.WhereAt(got, tmid)
		if err != nil {
			t.Fatal(err)
		}
		var pos struct{ X, Y float64 }
		if s := getJSON(t, fmt.Sprintf("%s/v1/whereat?id=%d&t=%s", ts.URL, id, f(tmid)), &pos); s != http.StatusOK {
			t.Fatalf("whereat %d = %d", i, s)
		}
		if pos.X != wantPos.X || pos.Y != wantPos.Y {
			t.Fatalf("vehicle %d whereat: HTTP (%v,%v) != facade (%v,%v)", i, pos.X, pos.Y, wantPos.X, wantPos.Y)
		}

		// whenat at the point we just located
		wantT, err := fxt.sys.WhenAt(got, wantPos)
		if err != nil {
			t.Fatal(err)
		}
		var when struct{ T float64 }
		if s := getJSON(t, fmt.Sprintf("%s/v1/whenat?id=%d&x=%s&y=%s", ts.URL, id, f(wantPos.X), f(wantPos.Y)), &when); s != http.StatusOK {
			t.Fatalf("whenat %d = %d", i, s)
		}
		if when.T != wantT {
			t.Fatalf("vehicle %d whenat: HTTP %v != facade %v", i, when.T, wantT)
		}

		// range around the located point
		r := press.NewMBR(press.Point{X: wantPos.X - 50, Y: wantPos.Y - 50},
			press.Point{X: wantPos.X + 50, Y: wantPos.Y + 50})
		t1, t2 := tr.Temporal[0].T, tr.Temporal[len(tr.Temporal)-1].T
		wantHit, err := fxt.sys.Range(got, t1, t2, r)
		if err != nil {
			t.Fatal(err)
		}
		var hit struct{ Hit bool }
		u := fmt.Sprintf("%s/v1/range?id=%d&t1=%s&t2=%s&xmin=%s&ymin=%s&xmax=%s&ymax=%s",
			ts.URL, id, f(t1), f(t2), f(r.MinX), f(r.MinY), f(r.MaxX), f(r.MaxY))
		if s := getJSON(t, u, &hit); s != http.StatusOK {
			t.Fatalf("range %d = %d", i, s)
		}
		if hit.Hit != wantHit {
			t.Fatalf("vehicle %d range: HTTP %v != facade %v", i, hit.Hit, wantHit)
		}

		// mindistance against the next vehicle
		other := uint64((i + 1) % n)
		otherCT, err := st.Get(other)
		if err != nil {
			t.Fatal(err)
		}
		wantD, err := fxt.sys.MinDistance(got, otherCT)
		if err != nil {
			t.Fatal(err)
		}
		var dist struct{ Distance float64 }
		if s := getJSON(t, fmt.Sprintf("%s/v1/mindistance?a=%d&b=%d", ts.URL, id, other), &dist); s != http.StatusOK {
			t.Fatalf("mindistance %d = %d", i, s)
		}
		if dist.Distance != wantD {
			t.Fatalf("vehicle %d mindistance: HTTP %v != facade %v", i, dist.Distance, wantD)
		}
	}

	// Fleet-level range (no id): compare against a brute-force facade Range
	// over the same stored records, keeping only vehicles whose lifetime
	// overlaps the window (the fleet index's rule).
	g := fxt.ds.Graph.MBR()
	quad := press.NewMBR(press.Point{X: g.MinX, Y: g.MinY},
		press.Point{X: (g.MinX + g.MaxX) / 2, Y: (g.MinY + g.MaxY) / 2})
	var tMin, tMax float64
	for i, tr := range fxt.ds.Truth {
		if lo := tr.Temporal[0].T; i == 0 || lo < tMin {
			tMin = lo
		}
		if hi := tr.Temporal[len(tr.Temporal)-1].T; i == 0 || hi > tMax {
			tMax = hi
		}
	}
	wantIDs := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		ct, err := st.Get(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if k := len(ct.Temporal); k == 0 || ct.Temporal[k-1].T < tMin || ct.Temporal[0].T > tMax {
			continue
		}
		hit, err := fxt.sys.Range(ct, tMin, tMax, quad)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			wantIDs[uint64(i)] = true
		}
	}
	var fleet struct{ IDs []uint64 }
	u := fmt.Sprintf("%s/v1/range?t1=%s&t2=%s&xmin=%s&ymin=%s&xmax=%s&ymax=%s",
		ts.URL, f(tMin), f(tMax), f(quad.MinX), f(quad.MinY), f(quad.MaxX), f(quad.MaxY))
	if s := getJSON(t, u, &fleet); s != http.StatusOK {
		t.Fatalf("fleet range = %d", s)
	}
	if len(fleet.IDs) != len(wantIDs) {
		t.Fatalf("fleet range: HTTP %d ids, facade %d", len(fleet.IDs), len(wantIDs))
	}
	for _, id := range fleet.IDs {
		if !wantIDs[id] {
			t.Fatalf("fleet range: HTTP returned id %d the facade did not", id)
		}
	}
	if len(wantIDs) == 0 {
		t.Fatal("fleet range matched nothing; widen the test region")
	}

	// Error surface: unknown id is 404, malformed parameters are 400.
	if s := getJSON(t, ts.URL+"/v1/whereat?id=99999&t=10", nil); s != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", s)
	}
	if s := getJSON(t, ts.URL+"/v1/whereat?id=abc&t=10", nil); s != http.StatusBadRequest {
		t.Fatalf("bad id = %d, want 400", s)
	}
	if s := getJSON(t, ts.URL+"/v1/range?id=0&t1=0&t2=1&xmin=0", nil); s != http.StatusBadRequest {
		t.Fatalf("missing mbr = %d, want 400", s)
	}
}

// A session that outgrows the memory cap must surface as 413 with the
// force-flushed record already queryable, and the vehicle's next request
// must open a fresh session normally.
func TestIngestSessionCap413(t *testing.T) {
	fxt := getFixture(t)
	st, err := press.CreateShardedFleetStore(t.TempDir()+"/fleet", 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fxt.sys.NewServer(context.Background(), st, press.ServerOptions{
		MaxConcurrent: 2,
		Stream:        press.StreamOptions{MaxSessionBytes: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
		st.Close()
	}()

	// An alternating far-edge walk never SP-compresses, so the retained
	// path grows by one edge per point and must trip the 64-byte cap.
	var pts []pointMsg
	for i := 0; i < 200; i++ {
		e := int64(0)
		if i%2 == 1 {
			e = 5
		}
		pts = append(pts, pointMsg{Edge: &e})
	}
	const id = 77
	status, resp := postIngest(t, ts.URL, id, pts, false)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("capped ingest = %d (%s), want 413", status, resp.Error)
	}
	if resp.Accepted == 0 || resp.Accepted >= len(pts) {
		t.Fatalf("accepted %d of %d; the breach should cut mid-request", resp.Accepted, len(pts))
	}
	if !resp.Flushed {
		t.Fatal("413 response did not report the force-flush")
	}
	if _, err := st.Get(id); err != nil {
		t.Fatalf("force-flushed record not stored: %v", err)
	}

	// The vehicle is not locked out: the next request starts a new session.
	status, resp = postIngest(t, ts.URL, id, pts[:4], true)
	if status != http.StatusOK || resp.Accepted != 4 {
		t.Fatalf("post-breach ingest = %d accepted %d, want 200/4", status, resp.Accepted)
	}

	var stats statsDoc
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Server.MaxConcurrent != 2 {
		t.Fatalf("max_concurrent = %d, want the configured 2", stats.Server.MaxConcurrent)
	}

	// A request body over the 1 MiB cap is also 413 ("split your batch"),
	// not 400.
	huge := make([]pointMsg, 50_000)
	for i := range huge {
		e := int64(i % 2 * 5)
		huge[i] = pointMsg{Edge: &e}
	}
	status, _ = postIngest(t, ts.URL, 78, huge, false)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", status)
	}
}

// Shutdown under load: feeders are mid-ingest when the server drains. Every
// point a feeder got a 200-accepted acknowledgement for must be recoverable
// from the store afterwards — the drain flushes open sessions instead of
// dropping them — and the handler goroutines must all exit.
func TestShutdownUnderLoadDrains(t *testing.T) {
	fxt := getFixture(t)
	before := runtime.NumGoroutine()
	st, err := press.CreateShardedFleetStore(t.TempDir()+"/fleet", 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fxt.sys.NewServer(context.Background(), st, press.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	const feeders = 8
	type vehicleLog struct {
		id       uint64
		pts      []pointMsg // everything sent, in order
		accepted int        // prefix acknowledged by the server
	}
	logs := make([][]*vehicleLog, feeders)
	var wg sync.WaitGroup
	for k := 0; k < feeders; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			// Feeder k owns vehicles k, k+feeders, ...: sessions are never
			// explicitly flushed, so only the drain can persist them.
			for v := k; v < len(fxt.ds.Truth); v += feeders {
				vl := &vehicleLog{id: uint64(1000 + v)}
				logs[k] = append(logs[k], vl)
				pts := points(fxt.ds.Truth[v])
				alive := true
				for len(pts) > 0 && alive {
					n := 5
					if n > len(pts) {
						n = len(pts)
					}
					body, _ := json.Marshal(map[string]any{"points": pts[:n]})
					resp, err := http.Post(fmt.Sprintf("%s/v1/ingest/%d", ts.URL, vl.id),
						"application/json", bytes.NewReader(body))
					if err != nil {
						return // transport cut: conservative, count nothing more
					}
					var ir ingestResp
					err = json.NewDecoder(resp.Body).Decode(&ir)
					resp.Body.Close()
					if err != nil {
						return
					}
					vl.pts = append(vl.pts, pts[:ir.Accepted]...)
					vl.accepted += ir.Accepted
					if resp.StatusCode != http.StatusOK {
						alive = false // draining: stop this feeder's vehicle
					}
					pts = pts[n:]
				}
			}
		}(k)
	}

	time.Sleep(30 * time.Millisecond) // let the feeders get mid-flight
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	// Post-drain surface: ingest refuses, health reports draining.
	status, _ := postIngest(t, ts.URL, 1, points(fxt.ds.Truth[0])[:1], false)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("ingest after shutdown = %d, want 503", status)
	}
	if s := getJSON(t, ts.URL+"/healthz", nil); s != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown = %d, want 503", s)
	}

	// No accepted point lost: the stored record decompresses to exactly the
	// acknowledged prefix — the full accepted edge sequence (spatial is
	// lossless) and the exact first/last accepted samples (BTC endpoints).
	checked := 0
	for _, fl := range logs {
		for _, vl := range fl {
			if vl.accepted == 0 {
				continue
			}
			var edges []press.EdgeID
			var samples []press.TemporalEntry
			for _, p := range vl.pts {
				if p.Edge != nil {
					edges = append(edges, press.EdgeID(*p.Edge))
				}
				if p.Sample != nil {
					samples = append(samples, press.TemporalEntry{D: p.Sample.D, T: p.Sample.T})
				}
			}
			ct, err := st.Get(vl.id)
			if err != nil {
				t.Fatalf("vehicle %d: %d accepted points but no stored record: %v", vl.id, vl.accepted, err)
			}
			tr, err := fxt.sys.Decompress(ct)
			if err != nil {
				t.Fatalf("vehicle %d: stored record broken: %v", vl.id, err)
			}
			if len(tr.Path) != len(edges) {
				t.Fatalf("vehicle %d: stored path has %d edges, accepted %d", vl.id, len(tr.Path), len(edges))
			}
			for i := range edges {
				if tr.Path[i] != edges[i] {
					t.Fatalf("vehicle %d: edge %d differs", vl.id, i)
				}
			}
			if len(samples) > 0 {
				if len(tr.Temporal) == 0 {
					t.Fatalf("vehicle %d: accepted %d samples, stored none", vl.id, len(samples))
				}
				// The codec stores (d, t) as float32 pairs; compare at that
				// precision.
				q := func(p press.TemporalEntry) press.TemporalEntry {
					return press.TemporalEntry{D: float64(float32(p.D)), T: float64(float32(p.T))}
				}
				if first := tr.Temporal[0]; first != q(samples[0]) {
					t.Fatalf("vehicle %d: first stored sample %+v != first accepted %+v", vl.id, first, q(samples[0]))
				}
				if last := tr.Temporal[len(tr.Temporal)-1]; last != q(samples[len(samples)-1]) {
					t.Fatalf("vehicle %d: last stored sample %+v != last accepted %+v", vl.id, last, q(samples[len(samples)-1]))
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("shutdown raced ahead of every feeder; nothing was verified")
	}

	// Idempotent shutdown, then teardown and goroutine-leak check.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// queryStatsDoc mirrors the query/index sections added to /v1/stats.
type queryStatsDoc struct {
	Query struct {
		Decodes uint64 `json:"decodes"`
	} `json:"query"`
	Index struct {
		Len         int    `json:"len"`
		Applied     uint64 `json:"applied"`
		Incremental *struct {
			Upserts        uint64 `json:"upserts"`
			Refreshes      uint64 `json:"refreshes"`
			SummaryRejects uint64 `json:"summary_rejects"`
			Verifies       uint64 `json:"verifies"`
		} `json:"incremental"`
	} `json:"index"`
}

// rangeIDs runs a fleet-level range query and returns the matching ids.
func rangeIDs(t *testing.T, base string, t1, t2, xmin, ymin, xmax, ymax float64) []uint64 {
	t.Helper()
	var out struct {
		IDs []uint64 `json:"ids"`
	}
	// 'f' formatting: exponent notation would put a literal '+' in the
	// query string, which decodes to a space.
	ff := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	url := fmt.Sprintf("%s/v1/range?t1=%s&t2=%s&xmin=%s&ymin=%s&xmax=%s&ymax=%s",
		base, ff(t1), ff(t2), ff(xmin), ff(ymin), ff(xmax), ff(ymax))
	if status := getJSON(t, url, &out); status != http.StatusOK {
		t.Fatalf("fleet range = %d", status)
	}
	return out.IDs
}

func worldRange(t *testing.T, base string, fxt *fixture) []uint64 {
	m := fxt.ds.Graph.MBR()
	return rangeIDs(t, base, 0, 1e12, m.MinX, m.MinY, m.MaxX, m.MaxY)
}

// Regression for the stale-fleet-index bug: a rebuild keyed on the
// store's record count left queries answering from the old index after a
// count-preserving delete+insert. The generation counter must catch it.
func TestFleetIndexSeesCountPreservingDeleteInsert(t *testing.T) {
	// The subtest names the index under test: the incremental index is the
	// only fleet index, built with default options.
	t.Run("incremental", func(t *testing.T) {
		fxt := getFixture(t)
		st, err := press.CreateShardedFleetStore(t.TempDir()+"/fleet", 4)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := fxt.sys.NewServer(context.Background(), st, press.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			srv.Close()
			st.Close()
		}()
		ct0, err := fxt.sys.Compress(fxt.ds.Truth[0])
		if err != nil {
			t.Fatal(err)
		}
		ct1, err := fxt.sys.Compress(fxt.ds.Truth[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(0, ct0); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(1, ct1); err != nil {
			t.Fatal(err)
		}
		got := worldRange(t, ts.URL, fxt)
		if len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Fatalf("baseline fleet range = %v, want [0 1]", got)
		}
		// Count-preserving churn: delete vehicle 1, insert the same
		// trajectory under id 2. Len() is back to 2; only the
		// generation says anything happened.
		before := st.Len()
		if err := st.Delete(1); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(2, ct1); err != nil {
			t.Fatal(err)
		}
		if st.Len() != before {
			t.Fatalf("churn was not count-preserving: %d -> %d", before, st.Len())
		}
		got = worldRange(t, ts.URL, fxt)
		if len(got) != 2 || got[0] != 0 || got[1] != 2 {
			t.Fatalf("post-churn fleet range = %v, want [0 2] (stale index?)", got)
		}
	})
}

// A flushed vehicle must become fleet-queryable via in-place upserts:
// applied counter in step with the flushes, and summary pruning doing
// real work.
func TestIncrementalIndexServing(t *testing.T) {
	fxt := getFixture(t)
	st, err := press.CreateShardedFleetStore(t.TempDir()+"/fleet", 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fxt.sys.NewServer(context.Background(), st, press.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
		st.Close()
	}()
	ingestFleet(t, ts.URL, fxt)
	n := len(fxt.ds.Truth)
	ids := worldRange(t, ts.URL, fxt)
	if len(ids) != n {
		t.Fatalf("fleet range found %d vehicles, want %d", len(ids), n)
	}
	var stats queryStatsDoc
	if status := getJSON(t, ts.URL+"/v1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats = %d", status)
	}
	if stats.Index.Applied != uint64(n) {
		t.Errorf("applied = %d, want %d", stats.Index.Applied, n)
	}
	if stats.Index.Len != n {
		t.Errorf("index len = %d, want %d", stats.Index.Len, n)
	}
	if inc := stats.Index.Incremental; inc == nil {
		t.Error("incremental counters missing from stats")
	} else if inc.Upserts < uint64(n) {
		t.Errorf("upserts = %d, want >= %d", inc.Upserts, n)
	}
	// A window covering the whole fleet opens every time bucket, so a
	// rectangle a few metres wide in a corner of the map is left to the
	// per-vehicle summaries to reject.
	if inc := stats.Index.Incremental; inc != nil {
		rejects := inc.SummaryRejects
		m := fxt.ds.Graph.MBR()
		rangeIDs(t, ts.URL, 0, 1e12, m.MinX, m.MinY, m.MinX+5, m.MinY+5)
		if status := getJSON(t, ts.URL+"/v1/stats", &stats); status != http.StatusOK {
			t.Fatalf("stats = %d", status)
		}
		if got := stats.Index.Incremental.SummaryRejects; got <= rejects {
			t.Errorf("corner range: summary_rejects %d -> %d, want growth", rejects, got)
		}
	}
	// A store change behind the server's back (a delete) is repaired with
	// a metadata refresh.
	if err := st.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	after := worldRange(t, ts.URL, fxt)
	if len(after) != n-1 {
		t.Fatalf("post-delete fleet range found %d, want %d", len(after), n-1)
	}
	for _, id := range after {
		if id == ids[0] {
			t.Fatalf("deleted vehicle %d still indexed", id)
		}
	}
	if status := getJSON(t, ts.URL+"/v1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats = %d", status)
	}
	if stats.Index.Incremental == nil || stats.Index.Incremental.Refreshes < 2 {
		t.Errorf("expected a catch-up refresh after the external delete: %+v", stats.Index.Incremental)
	}
}

// Fleet answers come from each vehicle's latest record, so compacting the
// store away its superseded records changes no answer. Vehicle 5 first
// stores trip A, which crosses box R during window W, then trip B, which
// does not: the fleet range over (W, R) is empty before and after Compact,
// and whereat serves trip B throughout.
func TestFleetRangeStableAcrossCompact(t *testing.T) {
	fxt := getFixture(t)
	const id = 5
	ctA, err := fxt.sys.Compress(fxt.ds.Truth[0])
	if err != nil {
		t.Fatal(err)
	}
	mid := ctA.Temporal[len(ctA.Temporal)/2].T
	w1, w2 := mid-1, mid+1
	pA, err := fxt.sys.WhereAt(ctA, mid)
	if err != nil {
		t.Fatal(err)
	}
	r := press.NewMBR(press.Point{X: pA.X - 20, Y: pA.Y - 20}, press.Point{X: pA.X + 20, Y: pA.Y + 20})
	var ctB *press.Compressed
	for _, tr := range fxt.ds.Truth[1:] {
		ct, err := fxt.sys.Compress(tr)
		if err != nil {
			t.Fatal(err)
		}
		if hit, err := fxt.sys.Range(ct, w1, w2, r); err == nil && !hit {
			ctB = ct
			break
		}
	}
	if ctB == nil {
		t.Fatal("no fixture trip avoids the box")
	}
	tB := ctB.Temporal[0].T
	wantB, err := fxt.sys.WhereAt(ctB, tB)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := press.CreateShardedFleetStore(filepath.Join(dir, "src"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(id, ctA); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(id, ctB); err != nil {
		t.Fatal(err)
	}
	check := func(st *press.ShardedFleetStore, phase string) {
		t.Helper()
		srv, err := fxt.sys.NewServer(context.Background(), st, press.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			srv.Close()
		}()
		if got := rangeIDs(t, ts.URL, w1, w2, r.MinX, r.MinY, r.MaxX, r.MaxY); len(got) != 0 {
			t.Errorf("%s: fleet range = %v, want [] (trip A is superseded)", phase, got)
		}
		var pos struct{ X, Y float64 }
		if s := getJSON(t, fmt.Sprintf("%s/v1/whereat?id=%d&t=%s", ts.URL, id, f(tB)), &pos); s != http.StatusOK {
			t.Fatalf("%s: whereat = %d", phase, s)
		}
		if pos.X != wantB.X || pos.Y != wantB.Y {
			t.Errorf("%s: whereat = %+v, want trip B's %+v", phase, pos, wantB)
		}
	}
	check(st, "before compact")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, dropped, err := press.CompactFleetStore(filepath.Join(dir, "src"), filepath.Join(dir, "dst")); err != nil || dropped != 1 {
		t.Fatalf("compact: dropped %d (%v), want 1", dropped, err)
	}
	st2, err := press.OpenShardedFleetStore(filepath.Join(dir, "dst"))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	check(st2, "after compact")
}

// A NaN query argument is refused up front: it matches no position or
// time, and as a memo key it never compares equal to itself.
func TestNaNQueryArgumentRefused(t *testing.T) {
	fxt := getFixture(t)
	st, err := press.CreateShardedFleetStore(t.TempDir()+"/fleet", 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fxt.sys.NewServer(context.Background(), st, press.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
		st.Close()
	}()
	ct, err := fxt.sys.Compress(fxt.ds.Truth[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(1, ct); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"/v1/whereat?id=1&t=NaN",
		"/v1/whenat?id=1&x=NaN&y=0",
		"/v1/range?t1=NaN&t2=1&xmin=0&ymin=0&xmax=1&ymax=1",
	} {
		if s := getJSON(t, ts.URL+q, nil); s != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", q, s)
		}
	}
}

// A warm query costs what a cold one does: the view holds no decoded
// state, so every single-vehicle read, repeated or not, reports exactly one
// decode, and the query section reports nothing but that count.
func TestWarmQueryReportsCacheHit(t *testing.T) {
	fxt := getFixture(t)
	st, err := press.CreateShardedFleetStore(t.TempDir()+"/fleet", 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fxt.sys.NewServer(context.Background(), st, press.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
		st.Close()
	}()
	ct, err := fxt.sys.Compress(fxt.ds.Truth[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(7, ct); err != nil {
		t.Fatal(err)
	}
	temporal := fxt.ds.Truth[0].Temporal
	var first struct{ X, Y float64 }
	url := ts.URL + "/v1/whereat?id=7&t=" + f(temporal[0].T)
	for i := 0; i < 3; i++ {
		var got struct{ X, Y float64 }
		if status := getJSON(t, url, &got); status != http.StatusOK {
			t.Fatalf("whereat = %d", status)
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("repeated whereat = %+v, first %+v", got, first)
		}
	}
	url2 := ts.URL + "/v1/whereat?id=7&t=" + f(temporal[len(temporal)-1].T)
	if status := getJSON(t, url2, nil); status != http.StatusOK {
		t.Fatalf("whereat (distinct t) = %d", status)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Query map[string]uint64 `json:"query"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("stats: %v in %s", err, body)
	}
	if len(stats.Query) != 1 || stats.Query["decodes"] != 4 {
		t.Errorf("query stats = %v, want only decodes = 4 (one per read)", stats.Query)
	}
}

// /metrics must expose the Prometheus text format with the query, index
// and per-endpoint counters.
func TestMetricsExposition(t *testing.T) {
	fxt := getFixture(t)
	st, err := press.CreateShardedFleetStore(t.TempDir()+"/fleet", 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fxt.sys.NewServer(context.Background(), st, press.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
		st.Close()
	}()
	ct, err := fxt.sys.Compress(fxt.ds.Truth[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(1, ct); err != nil {
		t.Fatal(err)
	}
	tq := fxt.ds.Truth[0].Temporal[0].T
	for i := 0; i < 2; i++ {
		if status := getJSON(t, ts.URL+"/v1/whereat?id=1&t="+f(tq), nil); status != http.StatusOK {
			t.Fatalf("whereat = %d", status)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ctype := resp.Header.Get("Content-Type"); !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("content type = %q", ctype)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"press_query_decodes_total 2",
		"press_store_records 1",
		"press_fleet_index_upserts_total",
		"press_requests_total{endpoint=\"whereat\"} 2",
		"press_request_errors_total{endpoint=\"whereat\"} 0",
		"press_uptime_seconds",
		"press_sp_kind{kind=\"hier\"} 1",
		"# TYPE press_sp_heap_bytes gauge",
		// The per-endpoint latency counters /v1/stats reports must reach
		// /metrics as a proper summary: one TYPE line, then _sum/_count
		// pairs per endpoint label, so node and router latencies line up
		// under a single metric name.
		"# TYPE press_http_request_seconds summary",
		"press_http_request_seconds_sum{endpoint=\"whereat\"} ",
		"press_http_request_seconds_count{endpoint=\"whereat\"} 2",
		"press_http_request_seconds_count{endpoint=\"metrics\"} ",
		"press_ready 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The SP source is one search: nothing mapped, built or cached to report.
	// The query view holds no cache either.
	for _, gone := range []string{"press_sp_mapped_bytes", "press_sp_build_workers", "press_sp_witness_settle_cap", "press_sp_unpack_", "press_query_cache_", "press_query_result_cache_"} {
		if strings.Contains(text, gone) {
			t.Errorf("metrics still publish %q", gone)
		}
	}
	// The summary pair must appear for every instrumented endpoint, and the
	// sum must be a parseable float strictly above zero for a served one.
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "press_http_request_seconds_sum{endpoint=\"whereat\"} ") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
		if err != nil || v <= 0 {
			t.Errorf("whereat latency sum %q not a positive float (%v)", line, err)
		}
	}
}
