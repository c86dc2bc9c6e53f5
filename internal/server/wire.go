// Binary wire-protocol ingest: the allocation-free hot path of the serving
// layer. Bodies with Content-Type application/x-press-wire are streams of
// CRC-framed batch frames (see internal/wire); each frame's vehicle groups
// are decoded into a pooled observation buffer and applied through
// stream.Manager.PushBatch under a single session-lock acquisition per
// group. Steady state performs zero allocations per point: the wire.Reader
// reuses its payload buffer across frames, the observation slice is reused
// across groups, and both are pooled across requests.
package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"press/internal/httpx"
	"press/internal/stream"
	"press/internal/wire"
)

// wireStats is the binary-protocol section of /v1/stats.
type wireStats struct {
	Frames    uint64 `json:"frames"`
	Points    uint64 `json:"points"`
	CRCErrors uint64 `json:"crc_errors"`
}

func (s *Server) wireInfo() wireStats {
	return wireStats{
		Frames:    s.wireFrames.Load(),
		Points:    s.wirePoints.Load(),
		CRCErrors: s.wireCRC.Load(),
	}
}

// wireIngestResponse is the JSON summary a binary ingest answers with (the
// response is control-plane, not hot path — JSON keeps it debuggable).
type wireIngestResponse struct {
	Accepted int    `json:"accepted"`
	Frames   int    `json:"frames"`
	Flushed  int    `json:"flushed"`
	Error    string `json:"error,omitempty"`
}

// wireScratch is the pooled per-request decode state: one frame reader and
// one observation buffer, both reused so the per-point path never touches
// the allocator.
type wireScratch struct {
	rd  *wire.Reader
	obs []stream.Obs
}

var wirePool = sync.Pool{New: func() any {
	return &wireScratch{rd: wire.NewReader(nil, 0)}
}}

// isWireRequest reports whether the request negotiated the binary protocol.
func isWireRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return ct == wire.ContentType || strings.HasPrefix(ct, wire.ContentType+";")
}

// handleIngestWire serves POST /v1/ingest: binary-only, multi-vehicle.
func (s *Server) handleIngestWire(w http.ResponseWriter, r *http.Request) {
	if !isWireRequest(r) {
		httpx.WriteErr(w, http.StatusUnsupportedMediaType,
			"bulk ingest is binary-only: set Content-Type "+wire.ContentType+
				" (JSON debug ingest lives at /v1/ingest/{id})")
		return
	}
	s.ingestWire(w, r, nil)
}

// ingestWire decodes a stream of wire frames from the request body and
// applies them. restrict, when non-nil, pins every group to one vehicle id
// (the /v1/ingest/{id} form); a mismatched group is a 400 — accepting it
// under another vehicle's URL would hide a confused client.
//
// Error mapping: malformed/truncated/checksum-failed frames are 400 (CRC
// failures also tick the crc_errors counter), an oversized frame is 413,
// and session-layer failures follow the ingestStatus contract. Everything
// accepted before the failing frame or group stays accepted — the response
// counts it, mirroring the JSON handler's partial-progress semantics.
func (s *Server) ingestWire(w http.ResponseWriter, r *http.Request, restrict *uint64) {
	sc := wirePool.Get().(*wireScratch)
	defer func() {
		sc.rd.Reset(nil)
		wirePool.Put(sc)
	}()
	sc.rd.ResetMax(r.Body, s.maxFrame)

	var resp wireIngestResponse
	fail := func(status int, err error) {
		resp.Error = err.Error()
		httpx.WriteJSON(w, status, resp)
	}
	for {
		fr, err := sc.rd.Next()
		if err == io.EOF {
			httpx.WriteJSON(w, http.StatusOK, resp)
			return
		}
		if err != nil {
			if errors.Is(err, wire.ErrChecksum) {
				s.wireCRC.Add(1)
			}
			status := http.StatusBadRequest
			if errors.Is(err, wire.ErrFrameTooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			fail(status, err)
			return
		}
		s.wireFrames.Add(1)
		resp.Frames++
		it := fr.Groups()
		var o wire.Obs
		for it.Next() {
			id := it.ID()
			if restrict != nil && id != *restrict {
				fail(http.StatusBadRequest,
					fmt.Errorf("frame group for vehicle %d on /v1/ingest/%d", id, *restrict))
				return
			}
			if restrict == nil && !s.owns(id) {
				// Cluster mode: a bulk frame carrying another node's vehicle
				// is misrouted — the router splits frames by owner, so this
				// means the client's routing table is stale. Groups already
				// applied stay applied (the 421 body names the owner, not the
				// partial-progress counts; re-sending an applied point just
				// extends its session, so replays are harmless).
				s.writeMisrouted(w, id)
				return
			}
			sc.obs = sc.obs[:0]
			for it.Point(&o) {
				sc.obs = append(sc.obs, stream.Obs{
					Edge:      o.Edge,
					Sample:    o.Sample,
					HasSample: o.HasSample,
				})
			}
			if it.Err() != nil {
				break // surfaced below; points already decoded were not pushed
			}
			n, err := s.mgr.PushBatch(id, sc.obs)
			resp.Accepted += n
			s.wirePoints.Add(uint64(n))
			if err != nil {
				status := ingestStatus(err)
				if status == http.StatusRequestEntityTooLarge {
					// Benign cut (see ingestStatus): the breaching point is
					// in the store and counted; the client resumes from the
					// accepted offset with a fresh session.
					resp.Flushed++
				}
				fail(status, err)
				return
			}
			if it.Flush() {
				if err := s.mgr.Flush(id); err != nil {
					status := ingestStatus(err)
					if status == http.StatusRequestEntityTooLarge {
						status = http.StatusInternalServerError
					}
					fail(status, err)
					return
				}
				resp.Flushed++
			}
		}
		if err := it.Err(); err != nil {
			fail(http.StatusBadRequest, err)
			return
		}
	}
}
