// Bulk wire ingest through the router: each inbound frame is split into
// per-owner sub-frames (group bytes copied verbatim — no point is ever
// re-encoded), the sub-streams are forwarded to their owners in parallel,
// and the per-node summaries are summed into one response. The hot path
// stays binary end to end.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"press/internal/httpx"
	"press/internal/wire"
)

// wireIngestResponse mirrors the nodes' bulk-ingest summary so the routed
// response keeps the single-node shape.
type wireIngestResponse struct {
	Accepted int    `json:"accepted"`
	Frames   int    `json:"frames"`
	Flushed  int    `json:"flushed"`
	Error    string `json:"error,omitempty"`
}

// handleIngestWire serves POST /v1/ingest (binary-only) on the router.
//
// Admission is all-or-nothing: every owner the batch touches must be
// healthy before anything is sent, so a client never has to untangle a
// half-delivered batch from a 503 — it just retries the whole thing
// against the drain-gate guarantee. After admission, a node that fails
// mid-send surfaces with the counts already applied (partial progress is
// real: points on other owners were accepted and stay).
func (rt *Router) handleIngestWire(w http.ResponseWriter, r *http.Request) {
	ct := r.Header.Get("Content-Type")
	if ct != wire.ContentType && !strings.HasPrefix(ct, wire.ContentType+";") {
		httpx.WriteErr(w, http.StatusUnsupportedMediaType,
			"bulk ingest is binary-only: set Content-Type "+wire.ContentType)
		return
	}
	n := rt.topo.Nodes()
	rd := wire.NewReader(r.Body, rt.opt.MaxFrameBytes)
	per := make([][]byte, n)
	var total int64
	for {
		fr, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, wire.ErrFrameTooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			httpx.WriteErr(w, status, err.Error())
			return
		}
		parts, err := fr.SplitByOwner(n, rt.topo.Owner)
		if err != nil {
			httpx.WriteErr(w, http.StatusBadRequest, err.Error())
			return
		}
		for i, p := range parts {
			if p == nil {
				continue
			}
			per[i] = append(per[i], p...)
			total += int64(len(p))
		}
		if total > rt.opt.MaxBodyBytes {
			httpx.WriteErr(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("cluster: bulk body exceeds %d buffered bytes", rt.opt.MaxBodyBytes))
			return
		}
	}
	for i := 0; i < n; i++ {
		if per[i] != nil && !rt.nodes[i].healthy.Load() {
			rt.gate(w, i)
			return
		}
	}

	results := make([]forwardResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if per[i] == nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Ingest retry policy: connect errors and 503 only (see forward).
			results[i], errs[i] = rt.forward(r.Context(), i, http.MethodPost,
				"/v1/ingest", wire.ContentType, per[i], false)
		}(i)
	}
	wg.Wait()

	var agg wireIngestResponse
	failStatus := 0
	for i := 0; i < n; i++ {
		if per[i] == nil {
			continue
		}
		if errs[i] != nil {
			if failStatus == 0 {
				failStatus = http.StatusBadGateway
				agg.Error = fmt.Sprintf("cluster: node %d: %v", i, errs[i])
			}
			continue
		}
		var nr wireIngestResponse
		if err := json.Unmarshal(results[i].body, &nr); err != nil {
			if failStatus == 0 {
				failStatus = http.StatusBadGateway
				agg.Error = fmt.Sprintf("cluster: node %d: unreadable response: %v", i, err)
			}
			continue
		}
		agg.Accepted += nr.Accepted
		agg.Frames += nr.Frames
		agg.Flushed += nr.Flushed
		if results[i].status != http.StatusOK && failStatus == 0 {
			failStatus = results[i].status
			agg.Error = fmt.Sprintf("node %d: %s", i, nr.Error)
		}
	}
	if failStatus != 0 {
		httpx.WriteJSON(w, failStatus, agg)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, agg)
}
