// Package cluster partitions a PRESS fleet across N pressd nodes and puts
// a thin, stateless scatter-gather router in front of them — the piece that
// takes the single-process serving stack to the paper's "city-scale LBS"
// pitch without any coordination service.
//
// The design leans on two earlier invariants. Vehicle ownership is
// store.ShardOf(id, N) — the same stable splitmix64 hash the store uses for
// its shard files — so the router, the nodes and any smart client compute
// the owner independently and always agree. And the shared state (road
// network, codebook) is read-only and identical on every node, so per-node
// work drops to O(fleet/N).
//
// The topology is static: an ordered address list, identical on every
// party. Nodes enforce ownership (misrouted work → 421 naming the owner,
// see internal/server's cluster mode); the Router forwards single-vehicle
// traffic to the owner by hash, splits bulk wire frames into per-owner
// sub-frames without re-encoding a point, and scatter-gathers fleet-wide
// queries with per-node timeouts, bounded jittered retries, and
// health-gated routing off each node's /readyz.
package cluster

import (
	"errors"
	"fmt"
	"strings"

	"press/internal/store"
)

// Topology is the static, ordered node address list. Index == node index:
// every party must be constructed from the same list in the same order, or
// ownership disagrees — the nodes' 421 checks turn that misconfiguration
// into a loud error instead of silently split state.
type Topology struct {
	addrs []string
}

// ParseTopology builds a topology from a comma-separated address list (the
// -cluster flag format). Addresses may be bare host:port — an http://
// prefix is added — and blank entries are rejected so an accidental double
// comma cannot silently renumber the nodes after it.
func ParseTopology(list string) (*Topology, error) {
	if strings.TrimSpace(list) == "" {
		return nil, errors.New("cluster: empty topology")
	}
	return NewTopology(strings.Split(list, ","))
}

// NewTopology builds a topology from an explicit address slice.
func NewTopology(addrs []string) (*Topology, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: empty topology")
	}
	out := make([]string, len(addrs))
	for i, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("cluster: blank address at node %d", i)
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		out[i] = strings.TrimRight(a, "/")
	}
	return &Topology{addrs: out}, nil
}

// Nodes returns the cluster size.
func (t *Topology) Nodes() int { return len(t.addrs) }

// Addr returns node i's base URL (scheme included, no trailing slash).
func (t *Topology) Addr(i int) string { return t.addrs[i] }

// Addrs returns a copy of the ordered address list.
func (t *Topology) Addrs() []string { return append([]string(nil), t.addrs...) }

// Owner returns the node index that owns vehicle id — store.ShardOf, the
// one ownership function of the whole system.
func (t *Topology) Owner(id uint64) int { return store.ShardOf(id, len(t.addrs)) }
