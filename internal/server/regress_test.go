// Regression tests for serving-layer contract bugs: the JSON ingest
// endpoint must reject bodies with trailing data instead of silently
// truncating them, a second Serve call must be refused instead of silently
// orphaning the first listener at Shutdown, and a malformed observation
// must be a 400 that leaves its vehicle's session usable.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"press"
)

// A JSON ingest body is exactly one request object. Anything after it —
// a second object, stray bytes, a concatenated batch a confused client
// meant to send — used to be silently ignored, acknowledging data that
// was never applied. It must be a 400 with nothing accepted from the
// trailing part.
func TestIngestRejectsTrailingData(t *testing.T) {
	ts, _ := wireServer(t)

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/ingest/1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	valid := `{"points":[{"edge":0}],"flush":false}`
	if s := post(valid); s != http.StatusOK {
		t.Fatalf("clean body: status %d", s)
	}
	if s := post(valid + "\n \t"); s != http.StatusOK {
		t.Fatalf("trailing whitespace: status %d, want 200", s)
	}
	for _, trailer := range []string{valid, "garbage", "[]", "0"} {
		if s := post(valid + trailer); s != http.StatusBadRequest {
			t.Fatalf("trailing %q: status %d, want 400", trailer, s)
		}
	}
}

// Serve is once-per-Server: a second call used to overwrite the registered
// http.Server, so Shutdown drained only the latest listener and left the
// first accepting connections with no graceful stop. The second call must
// fail fast and close its listener.
func TestServeSecondCallRejected(t *testing.T) {
	fxt := getFixture(t)
	st, err := press.CreateShardedFleetStore(t.TempDir()+"/fleet", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := fxt.sys.NewServer(context.Background(), st, press.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln1) }()

	// Wait for the first listener to actually serve.
	base := "http://" + ln1.Addr().String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first listener never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln2); err == nil {
		t.Fatal("second Serve succeeded; first listener is now orphaned")
	}
	if _, err := ln2.Accept(); err == nil {
		t.Fatal("rejected Serve left its listener open")
	}

	// The first listener is unaffected and still drains through Shutdown.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("first listener broken by rejected second Serve: %v", err)
	}
	resp.Body.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after graceful Shutdown", err)
	}
}

// A malformed observation — an edge outside the network, or a sample that
// repeats or goes back in time, goes back in distance or is not finite —
// is a 400 on both ingest encodings. It never wedges the vehicle's session:
// the vehicle's next valid push succeeds and flushes, and the server
// drains. Every request carries a deadline, because the failure modes are
// an endless loop and a session lock never released.
func TestIngestRejectsBadObservations(t *testing.T) {
	fxt := getFixture(t)
	st, err := press.CreateShardedFleetStore(t.TempDir()+"/fleet", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := fxt.sys.NewServer(context.Background(), st, press.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 10 * time.Second}
	post := func(url, contentType string, body []byte) (int, map[string]any) {
		t.Helper()
		resp, err := client.Post(url, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("decoding ingest response: %v", err)
		}
		return resp.StatusCode, doc
	}

	n := press.EdgeID(fxt.ds.Graph.NumEdges())
	first := fxt.ds.Truth[0].Path[0]
	type entry = press.TemporalEntry
	cases := []struct {
		name   string
		valid  []entry
		bad    press.WireObs
		resume entry
		json   string // the bad point as JSON; "" when JSON cannot carry it
	}{
		{"repeats the anchor", []entry{{D: 0, T: 5}},
			press.WireObs{Edge: press.NoEdge, Sample: entry{D: 0, T: 5}, HasSample: true}, entry{D: 1, T: 6},
			`{"sample":{"d":0,"t":5}}`},
		{"time goes backward", []entry{{D: 0, T: 0}, {D: 10, T: 5}},
			press.WireObs{Edge: press.NoEdge, Sample: entry{D: 20, T: 4}, HasSample: true}, entry{D: 20, T: 6},
			`{"sample":{"d":20,"t":4}}`},
		{"distance decreases", []entry{{D: 0, T: 0}, {D: 10, T: 5}},
			press.WireObs{Edge: press.NoEdge, Sample: entry{D: 5, T: 10}, HasSample: true}, entry{D: 15, T: 10},
			`{"sample":{"d":5,"t":10}}`},
		{"NaN distance", []entry{{D: 0, T: 0}},
			press.WireObs{Edge: press.NoEdge, Sample: entry{D: math.NaN(), T: 5}, HasSample: true}, entry{D: 10, T: 5}, ""},
		{"infinite time", []entry{{D: 0, T: 0}},
			press.WireObs{Edge: press.NoEdge, Sample: entry{D: 10, T: math.Inf(1)}, HasSample: true}, entry{D: 10, T: 5}, ""},
		{"edge past the network", []entry{{D: 0, T: 0}},
			press.WireObs{Edge: n}, entry{D: 10, T: 5}, fmt.Sprintf(`{"edge":%d}`, n)},
		{"negative edge", []entry{{D: 0, T: 0}},
			press.WireObs{Edge: -7}, entry{D: 10, T: 5}, `{"edge":-7}`},
		// 1<<40 would wrap to edge 0 if the JSON handler narrowed it unchecked.
		{"edge far past the network", []entry{{D: 0, T: 0}},
			press.WireObs{Edge: n + 1}, entry{D: 10, T: 5}, `{"edge":1099511627776}`},
	}
	id := uint64(500)
	for _, tc := range cases {
		// Binary wire ingest.
		id++
		var enc press.WireEncoder
		enc.StartGroup(id, false)
		enc.Edge(first)
		for _, p := range tc.valid {
			enc.Sample(p)
		}
		if s, doc := post(ts.URL+"/v1/ingest", press.WireContentType, enc.Finish()); s != http.StatusOK {
			t.Fatalf("%s: wire prefix: status %d (%v)", tc.name, s, doc)
		}
		enc.Reset()
		enc.StartGroup(id, false)
		if !tc.bad.HasSample && tc.bad.Edge < 0 {
			enc.Edge(tc.bad.Edge) // Obs would read a negative edge as "none"
		} else {
			enc.Obs(tc.bad)
		}
		if s, doc := post(ts.URL+"/v1/ingest", press.WireContentType, enc.Finish()); s != http.StatusBadRequest {
			t.Fatalf("%s: wire bad point: status %d (%v), want 400", tc.name, s, doc)
		}
		enc.Reset()
		enc.StartGroup(id, true)
		enc.Sample(tc.resume)
		if s, doc := post(ts.URL+"/v1/ingest", press.WireContentType, enc.Finish()); s != http.StatusOK || doc["flushed"] != 1.0 {
			t.Fatalf("%s: wire resume: status %d (%v), want 200 and a flush", tc.name, s, doc)
		}

		// JSON ingest.
		if tc.json == "" {
			continue
		}
		id++
		url := fmt.Sprintf("%s/v1/ingest/%d", ts.URL, id)
		prefix := fmt.Sprintf(`{"edge":%d}`, first)
		for _, p := range tc.valid {
			prefix += fmt.Sprintf(`,{"sample":{"d":%g,"t":%g}}`, p.D, p.T)
		}
		if s, doc := post(url, "application/json", []byte(`{"points":[`+prefix+`]}`)); s != http.StatusOK {
			t.Fatalf("%s: JSON prefix: status %d (%v)", tc.name, s, doc)
		}
		if s, doc := post(url, "application/json", []byte(`{"points":[`+tc.json+`]}`)); s != http.StatusBadRequest {
			t.Fatalf("%s: JSON bad point: status %d (%v), want 400", tc.name, s, doc)
		}
		resume := fmt.Sprintf(`{"points":[{"sample":{"d":%g,"t":%g}}],"flush":true}`, tc.resume.D, tc.resume.T)
		if s, doc := post(url, "application/json", []byte(resume)); s != http.StatusOK || doc["flushed"] != true {
			t.Fatalf("%s: JSON resume: status %d (%v), want 200 and a flush", tc.name, s, doc)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
