// Package wire is the compact binary ingest protocol of the serving layer:
// length-prefixed, CRC32-framed batches of GPS observations, versioned with
// a magic header like the store's record files. It exists because PR 5
// measured HTTP/JSON ingest at ~40% of the wire points/s budget — the JSON
// surface stays as the debug protocol, this is the one a fleet feeds.
//
// # Frame layout
//
// A stream is a sequence of frames; each frame is independently validated
// and carries batches for any number of vehicles, so one connection (or one
// HTTP body with Content-Type application/x-press-wire) can feed a whole
// fleet:
//
//	frame   := header payload
//	header  := magic "PRSW" | u8 version (1) | u8 type (1 = batch)
//	           | u16 reserved (0) | u32 payload length | u32 CRC32-IEEE(payload)
//	payload := group*
//	group   := u64 vehicle id | u32 point count | u8 flags (bit0 = flush
//	           after this group) | point*
//	point   := u8 kind (bit0 = edge present, bit1 = sample present; 0 and
//	           >3 are malformed) | [i32 edge, negative is malformed]
//	           | [f64 d, f64 t]
//
// All integers and floats are little-endian, matching the store formats.
// A point may carry an edge, a (d, t) sample, or both (edge first, the
// trajectory's replay order) — exactly the JSON protocol's point shapes.
//
// # Error mapping
//
// Damage surfaces as typed errors, matched with errors.Is: ErrBadMagic
// (not a wire stream), ErrBadVersion (a future format), ErrFrameTooLarge
// (oversized length prefix — the reader refuses to buffer it),
// ErrChecksum (payload bytes do not match the frame CRC), ErrTruncated
// (the stream ended mid-header or mid-payload) and ErrBadFrame (structural
// damage inside a CRC-valid payload: short group header, bad point kind,
// negative edge id, point count past the payload end). A clean end between frames is io.EOF.
//
// # Allocation discipline
//
// The decode path is allocation-free in steady state: Reader reuses one
// payload buffer across frames (grown amortized, never per frame), and
// GroupIter decodes points into a caller-owned Obs, so a server holding a
// pooled Reader pays zero allocations per point. The benchmark
// BenchmarkFrameDecode asserts this with -benchmem (0 allocs/op), gated in
// CI by scripts/allocgate.sh and TestDecodeAllocFree.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"press/internal/roadnet"
	"press/internal/traj"
)

// ContentType is the MIME type that selects this protocol on the HTTP
// ingest endpoints.
const ContentType = "application/x-press-wire"

// Magic opens every frame; version is bumped on incompatible layout
// changes, like the store record formats.
var Magic = [4]byte{'P', 'R', 'S', 'W'}

const (
	// Version is the frame format this build writes and accepts.
	Version = 1
	// FrameBatch is the only frame type: vehicle groups of points.
	FrameBatch = 1

	headerSize  = 16
	groupHeader = 8 + 4 + 1

	kindEdge   = 1 << 0
	kindSample = 1 << 1

	flagFlush = 1 << 0

	// DefaultMaxPayload caps one frame's payload when the caller passes 0:
	// aligned with the server's 1 MiB JSON ingest body cap.
	DefaultMaxPayload = 1 << 20
)

// Typed decode errors; match with errors.Is.
var (
	ErrBadMagic      = errors.New("wire: bad magic")
	ErrBadVersion    = errors.New("wire: unsupported version")
	ErrBadFrame      = errors.New("wire: malformed frame")
	ErrChecksum      = errors.New("wire: frame checksum mismatch")
	ErrTruncated     = errors.New("wire: truncated frame")
	ErrFrameTooLarge = errors.New("wire: frame exceeds payload cap")
)

// Obs is one decoded observation: the edge the vehicle entered
// (roadnet.NoEdge when the point carried none), its (d, t) sample, or both.
type Obs struct {
	Edge      roadnet.EdgeID
	Sample    traj.Entry
	HasSample bool
}

// --- encoding ---

// Encoder builds one frame: StartGroup opens a vehicle batch, Edge/Sample/
// Obs append points to it, Finish seals the frame (header, length, CRC)
// and returns its bytes. The zero value is ready to use; Reset reuses the
// buffer for the next frame, so a long-lived encoder allocates only while
// its largest frame is still growing.
type Encoder struct {
	buf    []byte
	group  int // offset of the open group's point-count field; -1 = none
	points int // points appended to the open group
}

// Reset discards any frame under construction and prepares for a new one.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.group = -1
	e.points = 0
}

func (e *Encoder) ensureHeader() {
	if len(e.buf) == 0 {
		e.buf = append(e.buf, make([]byte, headerSize)...)
		e.group = -1
	}
}

// StartGroup opens a batch of points for vehicle id, closing any previous
// group. When flush is set the server ends the vehicle's session after the
// group's points — the binary form of the JSON protocol's "flush":true. A
// group may hold zero points (a pure flush marker).
func (e *Encoder) StartGroup(id uint64, flush bool) {
	e.ensureHeader()
	e.closeGroup()
	e.buf = binary.LittleEndian.AppendUint64(e.buf, id)
	e.group = len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0) // point count, backpatched
	var flags byte
	if flush {
		flags = flagFlush
	}
	e.buf = append(e.buf, flags)
	e.points = 0
}

func (e *Encoder) closeGroup() {
	if e.group >= 0 {
		binary.LittleEndian.PutUint32(e.buf[e.group:], uint32(e.points))
		e.group = -1
	}
}

// Edge appends an edge-only point to the open group.
func (e *Encoder) Edge(edge roadnet.EdgeID) {
	e.mustGroup()
	e.buf = append(e.buf, kindEdge)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(edge))
	e.points++
}

// Sample appends a sample-only point to the open group.
func (e *Encoder) Sample(p traj.Entry) {
	e.mustGroup()
	e.buf = append(e.buf, kindSample)
	e.appendSample(p)
	e.points++
}

// Obs appends one observation: edge, sample, or both (edge first).
func (e *Encoder) Obs(o Obs) {
	e.mustGroup()
	var kind byte
	if o.Edge != roadnet.NoEdge {
		kind |= kindEdge
	}
	if o.HasSample {
		kind |= kindSample
	}
	e.buf = append(e.buf, kind)
	if kind&kindEdge != 0 {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(o.Edge))
	}
	if kind&kindSample != 0 {
		e.appendSample(o.Sample)
	}
	e.points++
}

func (e *Encoder) appendSample(p traj.Entry) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(p.D))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(p.T))
}

func (e *Encoder) mustGroup() {
	if len(e.buf) == 0 || e.group < 0 {
		panic("wire: point appended outside a group (call StartGroup first)")
	}
}

// Finish seals the frame and returns its bytes, valid until the next Reset
// or StartGroup. An empty frame (no groups) is legal and decodes to zero
// groups.
func (e *Encoder) Finish() []byte {
	e.ensureHeader()
	e.closeGroup()
	payload := e.buf[headerSize:]
	hdr := e.buf[:headerSize]
	copy(hdr[:4], Magic[:])
	hdr[4] = Version
	hdr[5] = FrameBatch
	hdr[6], hdr[7] = 0, 0
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:], crc32.ChecksumIEEE(payload))
	return e.buf
}

// --- decoding ---

// Reader decodes a stream of frames from r, reusing one payload buffer
// across frames (the allocation-free half of the protocol). Not safe for
// concurrent use; pool Readers across requests instead.
type Reader struct {
	r   io.Reader
	max int
	hdr [headerSize]byte
	buf []byte
}

// NewReader wraps r; maxPayload caps a single frame's payload (0 =
// DefaultMaxPayload) so a hostile length prefix cannot balloon the buffer.
func NewReader(r io.Reader, maxPayload int) *Reader {
	rd := &Reader{}
	rd.ResetMax(r, maxPayload)
	return rd
}

// Reset repoints the reader at a new stream, keeping its buffer and cap.
func (d *Reader) Reset(r io.Reader) { d.r = r }

// ResetMax is Reset with a new payload cap (0 = DefaultMaxPayload).
func (d *Reader) ResetMax(r io.Reader, maxPayload int) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	d.r, d.max = r, maxPayload
}

// Next reads and validates the next frame. io.EOF marks a clean end of
// stream (between frames); every other failure is one of the typed errors.
// The returned Frame views the reader's internal buffer and is valid only
// until the following Next call.
func (d *Reader) Next() (Frame, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("%w: stream ended mid-header", ErrTruncated)
	}
	if [4]byte(d.hdr[:4]) != Magic {
		return Frame{}, ErrBadMagic
	}
	if v := d.hdr[4]; v != Version {
		return Frame{}, fmt.Errorf("%w %d", ErrBadVersion, v)
	}
	if t := d.hdr[5]; t != FrameBatch {
		return Frame{}, fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, t)
	}
	if d.hdr[6] != 0 || d.hdr[7] != 0 {
		return Frame{}, fmt.Errorf("%w: nonzero reserved bytes", ErrBadFrame)
	}
	n := int(binary.LittleEndian.Uint32(d.hdr[8:]))
	if n > d.max {
		return Frame{}, fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, n, d.max)
	}
	if cap(d.buf) < n {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		return Frame{}, fmt.Errorf("%w: stream ended mid-payload", ErrTruncated)
	}
	if got, want := crc32.ChecksumIEEE(d.buf), binary.LittleEndian.Uint32(d.hdr[12:]); got != want {
		return Frame{}, fmt.Errorf("%w: crc %08x != %08x", ErrChecksum, got, want)
	}
	return Frame{payload: d.buf}, nil
}

// Frame is one CRC-validated batch frame; iterate its vehicle groups with
// Groups.
type Frame struct {
	payload []byte
}

// PayloadBytes returns the payload length, for accounting.
func (f Frame) PayloadBytes() int { return len(f.payload) }

// Groups returns an iterator over the frame's vehicle groups.
func (f Frame) Groups() GroupIter { return GroupIter{rest: f.payload} }

// GroupIter walks a frame: Next advances to the following vehicle group
// (skipping any points of the current group not yet consumed), Point
// decodes the group's next point into a caller-owned Obs. Neither
// allocates. After the loops, Err reports structural damage (ErrBadFrame)
// encountered mid-walk.
type GroupIter struct {
	rest  []byte
	id    uint64
	flush bool
	npts  int
	err   error
}

// Next advances to the next group; false at end of frame or on error.
func (it *GroupIter) Next() bool {
	var skip Obs
	for it.npts > 0 {
		if !it.Point(&skip) {
			return false
		}
	}
	if it.err != nil || len(it.rest) == 0 {
		return false
	}
	if len(it.rest) < groupHeader {
		it.err = fmt.Errorf("%w: short group header", ErrBadFrame)
		return false
	}
	it.id = binary.LittleEndian.Uint64(it.rest)
	n := binary.LittleEndian.Uint32(it.rest[8:])
	flags := it.rest[12]
	if flags&^flagFlush != 0 {
		it.err = fmt.Errorf("%w: unknown group flags %#x", ErrBadFrame, flags)
		return false
	}
	it.rest = it.rest[groupHeader:]
	// Each point is at least 1 byte, so a count past the remaining payload
	// is structural damage regardless of point shapes.
	if int64(n) > int64(len(it.rest)) {
		it.err = fmt.Errorf("%w: %d points past payload end", ErrBadFrame, n)
		return false
	}
	it.npts = int(n)
	it.flush = flags&flagFlush != 0
	return true
}

// ID returns the current group's vehicle id.
func (it *GroupIter) ID() uint64 { return it.id }

// Flush reports whether the current group ends the vehicle's session.
func (it *GroupIter) Flush() bool { return it.flush }

// Points returns how many points of the current group remain undecoded.
func (it *GroupIter) Points() int { return it.npts }

// Point decodes the current group's next point into *o; false at end of
// group or on error.
func (it *GroupIter) Point(o *Obs) bool {
	if it.err != nil || it.npts == 0 {
		return false
	}
	if len(it.rest) < 1 {
		it.err = fmt.Errorf("%w: point truncated", ErrBadFrame)
		return false
	}
	kind := it.rest[0]
	if kind == 0 || kind&^(kindEdge|kindSample) != 0 {
		it.err = fmt.Errorf("%w: bad point kind %#x", ErrBadFrame, kind)
		return false
	}
	rest := it.rest[1:]
	o.Edge = roadnet.NoEdge
	o.Sample = traj.Entry{}
	o.HasSample = false
	if kind&kindEdge != 0 {
		if len(rest) < 4 {
			it.err = fmt.Errorf("%w: point truncated", ErrBadFrame)
			return false
		}
		o.Edge = roadnet.EdgeID(int32(binary.LittleEndian.Uint32(rest)))
		if o.Edge < 0 {
			it.err = fmt.Errorf("%w: negative edge id %d", ErrBadFrame, o.Edge)
			return false
		}
		rest = rest[4:]
	}
	if kind&kindSample != 0 {
		if len(rest) < 16 {
			it.err = fmt.Errorf("%w: point truncated", ErrBadFrame)
			return false
		}
		o.Sample.D = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		o.Sample.T = math.Float64frombits(binary.LittleEndian.Uint64(rest[8:]))
		o.HasSample = true
		rest = rest[16:]
	}
	it.rest = rest
	it.npts--
	return true
}

// Err returns the first structural error the walk hit, nil on a clean walk.
func (it *GroupIter) Err() error { return it.err }

// --- frame splitting (cluster router) ---

// SplitByOwner re-partitions the frame's vehicle groups across n owners:
// owner maps each group's vehicle id to an owner index in [0, n), and the
// result holds one freshly framed (header + length + CRC) byte slice per
// owner, nil for owners that received no groups. Group byte ranges are
// copied verbatim — points are never re-encoded, so each sub-frame's groups
// are byte-identical to the input's, in input order per owner. The cluster
// router uses this to split one client bulk frame into the per-node
// sub-frames it forwards.
//
// The returned slices are copies: they stay valid after the Reader that
// produced the frame advances. Structural damage inside the payload
// surfaces as ErrBadFrame (same walk as GroupIter); an owner index out of
// range is a plain error — it means the caller's hash disagrees with n,
// not that the frame is damaged.
func (f Frame) SplitByOwner(n int, owner func(id uint64) int) ([][]byte, error) {
	if n <= 0 {
		return nil, fmt.Errorf("wire: SplitByOwner with %d owners", n)
	}
	payloads := make([][]byte, n)
	rest := f.payload
	for len(rest) > 0 {
		if len(rest) < groupHeader {
			return nil, fmt.Errorf("%w: short group header", ErrBadFrame)
		}
		id := binary.LittleEndian.Uint64(rest)
		npts := binary.LittleEndian.Uint32(rest[8:])
		flags := rest[12]
		if flags&^flagFlush != 0 {
			return nil, fmt.Errorf("%w: unknown group flags %#x", ErrBadFrame, flags)
		}
		// Walk the group's points to find its end; the same size rules
		// GroupIter.Point enforces.
		off := groupHeader
		for p := uint32(0); p < npts; p++ {
			if off >= len(rest) {
				return nil, fmt.Errorf("%w: point truncated", ErrBadFrame)
			}
			kind := rest[off]
			if kind == 0 || kind&^(kindEdge|kindSample) != 0 {
				return nil, fmt.Errorf("%w: bad point kind %#x", ErrBadFrame, kind)
			}
			size := 1
			if kind&kindEdge != 0 {
				size += 4
			}
			if kind&kindSample != 0 {
				size += 16
			}
			if off+size > len(rest) {
				return nil, fmt.Errorf("%w: point truncated", ErrBadFrame)
			}
			off += size
		}
		o := owner(id)
		if o < 0 || o >= n {
			return nil, fmt.Errorf("wire: owner %d for vehicle %d out of range [0,%d)", o, id, n)
		}
		payloads[o] = append(payloads[o], rest[:off]...)
		rest = rest[off:]
	}
	out := make([][]byte, n)
	for i, p := range payloads {
		if len(p) > 0 {
			out[i] = frameAround(p)
		}
	}
	return out, nil
}

// frameAround wraps an already-encoded payload in a fresh frame header.
func frameAround(payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	copy(buf[:4], Magic[:])
	buf[4] = Version
	buf[5] = FrameBatch
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(payload))
	copy(buf[headerSize:], payload)
	return buf
}
