// Router observability: per-node latency/error/retry counters plus the
// router's own per-endpoint latencies, exposed as JSON (/v1/stats) and in
// Prometheus text exposition (/metrics). The per-endpoint metric names
// match the nodes' (press_requests_total, press_http_request_seconds) so
// node and router latencies line up on one dashboard.
package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"press/internal/httpx"
)

// nodeStatsJSON is one node's row in /v1/stats.
type nodeStatsJSON struct {
	Index    int    `json:"index"`
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Retries  uint64 `json:"retries"`
	MeanUS   int64  `json:"mean_us"`
}

type routerStatsResponse struct {
	Router   routerInfo               `json:"router"`
	Nodes    []nodeStatsJSON          `json:"nodes"`
	Endpoint map[string]httpx.Summary `json:"endpoints"`
}

type routerInfo struct {
	Nodes         int   `json:"nodes"`
	Healthy       int   `json:"healthy"`
	UptimeSeconds int64 `json:"uptime_s"`
}

func (rt *Router) nodeStats() []nodeStatsJSON {
	out := make([]nodeStatsJSON, len(rt.nodes))
	for i, ns := range rt.nodes {
		row := nodeStatsJSON{
			Index:    i,
			Addr:     ns.addr,
			Healthy:  ns.healthy.Load(),
			Requests: ns.requests.Load(),
			Errors:   ns.errors.Load(),
			Retries:  ns.retries.Load(),
		}
		if row.Requests > 0 {
			row.MeanUS = ns.totalNS.Load() / int64(row.Requests) / 1e3
		}
		out[i] = row
	}
	return out
}

func (rt *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	nodes := rt.nodeStats()
	healthy := 0
	for _, n := range nodes {
		if n.Healthy {
			healthy++
		}
	}
	resp := routerStatsResponse{
		Router: routerInfo{
			Nodes:         len(nodes),
			Healthy:       healthy,
			UptimeSeconds: int64(time.Since(rt.start).Seconds()),
		},
		Nodes:    nodes,
		Endpoint: make(map[string]httpx.Summary, len(rt.metrics)),
	}
	for name, m := range rt.metrics {
		resp.Endpoint[name] = m.Summary()
	}
	httpx.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	nodes := rt.nodeStats()
	healthy := 0
	for _, n := range nodes {
		if n.Healthy {
			healthy++
		}
	}
	gauge("press_router_uptime_seconds", "Seconds since the router started.", time.Since(rt.start).Seconds())
	gauge("press_router_nodes", "Cluster size the router was booted with.", float64(len(nodes)))
	gauge("press_router_nodes_healthy", "Nodes currently passing health probes.", float64(healthy))

	fmt.Fprintf(&b, "# HELP press_router_node_healthy Node health bit from the /readyz prober.\n# TYPE press_router_node_healthy gauge\n")
	for _, n := range nodes {
		v := 0
		if n.Healthy {
			v = 1
		}
		fmt.Fprintf(&b, "press_router_node_healthy{node=\"%d\"} %d\n", n.Index, v)
	}
	fmt.Fprintf(&b, "# HELP press_router_node_requests_total Attempts sent per node (retries included).\n# TYPE press_router_node_requests_total counter\n")
	for _, n := range nodes {
		fmt.Fprintf(&b, "press_router_node_requests_total{node=\"%d\"} %d\n", n.Index, n.Requests)
	}
	fmt.Fprintf(&b, "# HELP press_router_node_errors_total Transport failures and 5xx responses per node.\n# TYPE press_router_node_errors_total counter\n")
	for _, n := range nodes {
		fmt.Fprintf(&b, "press_router_node_errors_total{node=\"%d\"} %d\n", n.Index, n.Errors)
	}
	fmt.Fprintf(&b, "# HELP press_router_node_retries_total Retry attempts per node.\n# TYPE press_router_node_retries_total counter\n")
	for _, n := range nodes {
		fmt.Fprintf(&b, "press_router_node_retries_total{node=\"%d\"} %d\n", n.Index, n.Retries)
	}
	fmt.Fprintf(&b, "# HELP press_router_node_request_seconds Cumulative attempt latency per node.\n# TYPE press_router_node_request_seconds summary\n")
	for i, n := range nodes {
		fmt.Fprintf(&b, "press_router_node_request_seconds_sum{node=\"%d\"} %g\n", n.Index, float64(rt.nodes[i].totalNS.Load())/1e9)
		fmt.Fprintf(&b, "press_router_node_request_seconds_count{node=\"%d\"} %d\n", n.Index, n.Requests)
	}

	names := make([]string, 0, len(rt.metrics))
	for name := range rt.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "# HELP press_requests_total Requests served per endpoint.\n# TYPE press_requests_total counter\n")
	for _, name := range names {
		fmt.Fprintf(&b, "press_requests_total{endpoint=%q} %d\n", name, rt.metrics[name].Count())
	}
	fmt.Fprintf(&b, "# HELP press_request_errors_total Requests answered with status >= 400 per endpoint.\n# TYPE press_request_errors_total counter\n")
	for _, name := range names {
		fmt.Fprintf(&b, "press_request_errors_total{endpoint=%q} %d\n", name, rt.metrics[name].Errors())
	}
	fmt.Fprintf(&b, "# HELP press_http_request_seconds Request latency per endpoint.\n# TYPE press_http_request_seconds summary\n")
	for _, name := range names {
		m := rt.metrics[name]
		fmt.Fprintf(&b, "press_http_request_seconds_sum{endpoint=%q} %g\n", name, m.Seconds())
		fmt.Fprintf(&b, "press_http_request_seconds_count{endpoint=%q} %d\n", name, m.Count())
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}
