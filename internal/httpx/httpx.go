// Package httpx is the HTTP plumbing the node (internal/server) and the
// router (internal/cluster) share: JSON responses and per-endpoint request
// counters behind /v1/stats and /metrics.
package httpx

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"
)

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteErr writes the JSON error document {"error": msg}.
func WriteErr(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
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

// Metrics are lock-free per-endpoint latency counters.
type Metrics struct {
	count   atomic.Uint64
	errs    atomic.Uint64
	totalNS atomic.Int64
	maxNS   atomic.Int64
}

// Instrument wraps h so every request it serves is counted in m.
func (m *Metrics) Instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		h(sw, r)
		m.observe(time.Since(t0), sw.status)
	}
}

func (m *Metrics) observe(d time.Duration, status int) {
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

// Count returns the requests served.
func (m *Metrics) Count() uint64 { return m.count.Load() }

// Errors returns the requests answered with status >= 400.
func (m *Metrics) Errors() uint64 { return m.errs.Load() }

// Seconds returns the cumulative request latency.
func (m *Metrics) Seconds() float64 { return float64(m.totalNS.Load()) / 1e9 }

// Summary is the JSON view of one endpoint's counters.
type Summary struct {
	Count  uint64 `json:"count"`
	Errors uint64 `json:"errors"`
	MeanUS int64  `json:"mean_us"`
	MaxUS  int64  `json:"max_us"`
}

// Summary snapshots the counters.
func (m *Metrics) Summary() Summary {
	n := m.count.Load()
	s := Summary{
		Count:  n,
		Errors: m.errs.Load(),
		MaxUS:  m.maxNS.Load() / 1e3,
	}
	if n > 0 {
		s.MeanUS = m.totalNS.Load() / int64(n) / 1e3
	}
	return s
}
