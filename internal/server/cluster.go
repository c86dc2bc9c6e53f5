// Cluster node side: a pressd instance that is one partition of a static
// N-node fleet. Vehicle ownership is store.ShardOf(id, Nodes) — the same
// stable hash the store uses for its shard files — so any party that knows
// the topology (the router, a smart client, another node) computes the
// owner without coordination. A node refuses work for vehicles it does not
// own with 421 Misdirected Request, carrying the owner's index so the
// caller can fix its routing table; readiness (distinct from liveness) is
// the /readyz probe the router health-gates on, turned off first during a
// drain so in-flight work finishes while new routing moves elsewhere.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"press/internal/core"
	"press/internal/httpx"
	"press/internal/store"
)

// ClusterOptions places this server in a static N-node cluster. The zero
// value (Nodes <= 1) is a single-node deployment: no ownership checks, no
// behavior change — every endpoint answers for every vehicle.
type ClusterOptions struct {
	// Nodes is the cluster size. Ownership checks are active when > 1.
	Nodes int
	// NodeIndex is this node's position in the topology, in [0, Nodes).
	NodeIndex int
}

func (c ClusterOptions) enabled() bool { return c.Nodes > 1 }

func (c ClusterOptions) validate() error {
	if !c.enabled() {
		return nil
	}
	if c.NodeIndex < 0 || c.NodeIndex >= c.Nodes {
		return fmt.Errorf("server: node index %d outside cluster [0,%d)", c.NodeIndex, c.Nodes)
	}
	return nil
}

// owns reports whether this node is the owner of vehicle id. Always true
// outside cluster mode.
func (s *Server) owns(id uint64) bool {
	if !s.cfg.Cluster.enabled() {
		return true
	}
	return store.ShardOf(id, s.cfg.Cluster.Nodes) == s.cfg.Cluster.NodeIndex
}

// misroutedResponse is the 421 body: enough for the caller to repair its
// routing table (owner) and to detect a topology mismatch (node/nodes).
type misroutedResponse struct {
	Error string `json:"error"`
	Owner int    `json:"owner"`
	Node  int    `json:"node"`
	Nodes int    `json:"nodes"`
}

// writeMisrouted answers 421 Misdirected Request for a vehicle this node
// does not own.
func (s *Server) writeMisrouted(w http.ResponseWriter, id uint64) {
	c := s.cfg.Cluster
	owner := store.ShardOf(id, c.Nodes)
	httpx.WriteJSON(w, http.StatusMisdirectedRequest, misroutedResponse{
		Error: fmt.Sprintf("vehicle %d belongs to node %d (this is node %d of %d)",
			id, owner, c.NodeIndex, c.Nodes),
		Owner: owner,
		Node:  c.NodeIndex,
		Nodes: c.Nodes,
	})
}

// checkOwner gates an id-keyed handler: true means proceed, false means the
// 421 was already written.
func (s *Server) checkOwner(w http.ResponseWriter, id uint64) bool {
	if s.owns(id) {
		return true
	}
	s.writeMisrouted(w, id)
	return false
}

// SetReady flips the readiness bit /readyz reports. A server starts ready;
// a drain turns it off first, so routers stop sending new work while the
// node is still alive to finish what it has.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports the readiness bit (drain state included, matching /readyz).
func (s *Server) Ready() bool { return s.ready.Load() && !s.isDraining() }

// handleReadyz is the readiness probe: 200 only while the node wants new
// work. Liveness (/healthz) stays 200 deep into a drain; readiness drops
// the moment SetReady(false) or Shutdown is called. Like /healthz it
// bypasses the concurrency bound so probes cannot be starved by load.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	status, code := "ready", http.StatusOK
	if !s.Ready() {
		status, code = "not ready", http.StatusServiceUnavailable
	}
	resp := map[string]any{"status": status}
	if c := s.cfg.Cluster; c.enabled() {
		resp["node"] = c.NodeIndex
		resp["nodes"] = c.Nodes
	}
	httpx.WriteJSON(w, code, resp)
}

// handleRecord serves GET /v1/record?id=: the vehicle's latest stored
// record, marshalled, as application/octet-stream. This is the cluster's
// record-shipping hop — the router fetches b's record here to compute a
// cross-node mindistance on a's owner — but it is served unconditionally
// (single-node callers get a cheap bulk-export primitive).
func (s *Server) handleRecord(w http.ResponseWriter, r *http.Request) {
	id, ok := s.vehicleID(w, r, "id")
	if !ok {
		return
	}
	if !s.checkOwner(w, id) {
		return
	}
	ct, _, err := s.st.GetRecord(id)
	if err != nil {
		writeQueryErr(w, id, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(ct.Marshal())
}

// handleMinDistanceWith serves POST /v1/mindistance?a=: the §5.4 pairwise
// distance between owned vehicle a and a record shipped in the request
// body (the other owner's marshalled trajectory). Argument order is
// preserved — a is the first operand exactly as in GET /v1/mindistance — so
// the routed answer matches the single-node one.
func (s *Server) handleMinDistanceWith(w http.ResponseWriter, r *http.Request) {
	a, ok := s.vehicleID(w, r, "a")
	if !ok {
		return
	}
	if !s.checkOwner(w, a) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpx.WriteErr(w, http.StatusRequestEntityTooLarge, err.Error())
			return
		}
		httpx.WriteErr(w, http.StatusBadRequest, "bad record body: "+err.Error())
		return
	}
	other, err := core.UnmarshalCompressed(body)
	if err != nil {
		httpx.WriteErr(w, http.StatusBadRequest, "bad record body: "+err.Error())
		return
	}
	d, err := s.view.MinDistanceWith(a, other)
	if err != nil {
		writeQueryErr(w, a, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]float64{"distance": d})
}

// Checkpoint flushes every open ingest session to the store without
// stopping the server — stream.Manager.Checkpoint semantics. pressd calls
// it on a timer (periodic durability bound) and at the top of a drain, so
// every acknowledged point is readable by the time a router re-routes this
// node's vehicles.
func (s *Server) Checkpoint(ctx context.Context) (int, error) {
	return s.mgr.Checkpoint(ctx)
}
