package spindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"press/internal/roadnet"
)

// The SP snapshot is the PRSP container, version 2: a section directory —
// each section one of the hierarchy's flat arrays, individually
// CRC-protected — so opening is a header-plus-directory read and the
// payloads are faulted in (and checked) lazily. Version 1 (a flat all-pair
// row file) is retired; such a file is rejected as ErrBadSnapshot, which
// makes it a cache miss like any other stale snapshot. Layout (little
// endian):
//
//	 0  magic "PRSP"
//	 4  u32 format version (2)
//	 8  u64 graph fingerprint (GraphFingerprint of the network)
//	16  u32 edge count |E|
//	20  u32 section count
//	24  u32 crc32(bytes [0, 24))                     — header CRC
//	28  directory, section count × 24 bytes each:
//	     u32 type | u64 absolute offset | u64 length | u32 crc32(payload)
//	28 + 24·k  u32 crc32(directory bytes)            — directory CRC
//	then the payloads, in directory order
//
// OpenHierMapped validates only the header and directory — a cold boot
// touches two pages regardless of graph size. The payload CRCs and the
// structural invariants (rank is a permutation, arcs reference valid
// endpoints, shortcuts reference strictly smaller arc ids that chain like
// the shortcut so unpacking terminates, CSR offsets are monotone and in
// range, each adjacency list holds only its node's arcs) are verified exactly
// once, on the first query that needs them; a failure degrades the Hier to
// exact Dijkstra rows (correct, slower, memory-bounded) and is reported by
// EnsureValid. Unknown section types are skipped, so the format can grow
// sections without breaking old readers.

// Typed snapshot failure modes; match with errors.Is.
var (
	// ErrBadSnapshot means the file is not a valid SP snapshot: wrong magic,
	// unsupported version, truncated, or a CRC or structural failure in the
	// header, the directory or a section payload.
	ErrBadSnapshot = errors.New("spindex: bad snapshot")
	// ErrSnapshotMismatch means the snapshot is internally consistent but
	// was written for a different road network than the one it is being
	// opened against (graph fingerprint or edge count disagree).
	ErrSnapshotMismatch = errors.New("spindex: snapshot does not match graph")
)

// IsCacheMiss reports whether a snapshot open failure means the file is a
// regenerable stale cache entry — absent, damaged, or written for another
// network — rather than a real I/O or permission problem that rebuilding
// would only paper over.
func IsCacheMiss(err error) bool {
	return errors.Is(err, os.ErrNotExist) ||
		errors.Is(err, ErrBadSnapshot) ||
		errors.Is(err, ErrSnapshotMismatch)
}

var snapshotMagic = [4]byte{'P', 'R', 'S', 'P'}

// GraphFingerprint hashes the shortest-path-relevant structure of a network:
// vertex/edge counts and every edge's (From, To, Weight). Geometry is
// excluded — it never influences shortest paths. Two graphs with equal
// fingerprints produce identical snapshots.
func GraphFingerprint(g *roadnet.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:4], v)
		h.Write(buf[:4])
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put32(uint32(g.NumVertices()))
	put32(uint32(g.NumEdges()))
	for i := range g.Edges {
		e := &g.Edges[i]
		put32(uint32(e.From))
		put32(uint32(e.To))
		put64(math.Float64bits(e.Weight))
	}
	return h.Sum64()
}

const (
	snapHeaderLen   = 24 // magic + version + fingerprint + |E| + sections
	snapshotVersion = 2
	hierDirEntryLen = 24

	hierSecRank    = 1
	hierSecArcs    = 2
	hierSecFwdIdx  = 3
	hierSecFwdList = 4
	hierSecBwdIdx  = 5
	hierSecBwdList = 6
	hierSecMeta    = 7 // u64 shortcut count

	hierMetaLen = 8
)

// hierSections lists the payloads in fixed write order.
func (h *Hier) hierSections() []struct {
	typ     uint32
	payload []byte
} {
	var meta [hierMetaLen]byte
	binary.LittleEndian.PutUint64(meta[:], uint64(h.shortcuts))
	return []struct {
		typ     uint32
		payload []byte
	}{
		{hierSecRank, h.rank},
		{hierSecArcs, h.arcs},
		{hierSecFwdIdx, h.fwdIdx},
		{hierSecFwdList, h.fwdList},
		{hierSecBwdIdx, h.bwdIdx},
		{hierSecBwdList, h.bwdList},
		{hierSecMeta, meta[:]},
	}
}

// WriteSnapshot serializes the hierarchy into the version-2 PRSP container.
// The sections are streamed straight from the flat arrays — no intermediate
// full-file buffer — so writing a mapped Hier back out is a pure copy. The
// output is deterministic for a given graph.
func (h *Hier) WriteSnapshot(w io.Writer) (int64, error) {
	secs := h.hierSections()

	header := make([]byte, snapHeaderLen+4)
	copy(header[:4], snapshotMagic[:])
	binary.LittleEndian.PutUint32(header[4:8], snapshotVersion)
	binary.LittleEndian.PutUint64(header[8:16], GraphFingerprint(h.g))
	binary.LittleEndian.PutUint32(header[16:20], uint32(h.n))
	binary.LittleEndian.PutUint32(header[20:24], uint32(len(secs)))
	binary.LittleEndian.PutUint32(header[24:28], crc32.ChecksumIEEE(header[:snapHeaderLen]))

	dir := make([]byte, hierDirEntryLen*len(secs))
	off := int64(len(header) + len(dir) + 4)
	for i, s := range secs {
		e := dir[hierDirEntryLen*i:]
		binary.LittleEndian.PutUint32(e[0:4], s.typ)
		binary.LittleEndian.PutUint64(e[4:12], uint64(off))
		binary.LittleEndian.PutUint64(e[12:20], uint64(len(s.payload)))
		binary.LittleEndian.PutUint32(e[20:24], crc32.ChecksumIEEE(s.payload))
		off += int64(len(s.payload))
	}

	var written int64
	emit := func(b []byte) error {
		c, err := w.Write(b)
		written += int64(c)
		return err
	}
	if err := emit(header); err != nil {
		return written, err
	}
	if err := emit(dir); err != nil {
		return written, err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(dir))
	if err := emit(crcBuf[:]); err != nil {
		return written, err
	}
	for _, s := range secs {
		if err := emit(s.payload); err != nil {
			return written, err
		}
	}
	return written, nil
}

// SaveSnapshot writes the hierarchy snapshot to path atomically (temp file
// + rename), world-readable like every other PRESS artifact other
// processes map.
func (h *Hier) SaveSnapshot(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".sp-hier-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := h.WriteSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// OpenHierMapped maps the version-2 snapshot at path read-only. Only the
// header and section directory are validated here — magic, version, graph
// fingerprint, directory CRC, section bounds — so opening cost does not
// scale with the hierarchy. Payload verification happens on first touch
// (see EnsureValid). Damage surfaces as ErrBadSnapshot, a snapshot for a
// different network as ErrSnapshotMismatch.
func OpenHierMapped(path string, g *roadnet.Graph) (*Hier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !fi.Mode().IsRegular() {
		// Not a stale cache entry but a misconfigured path: a plain error, so
		// cache callers fail instead of rebuilding over it.
		return nil, fmt.Errorf("spindex: snapshot %s is not a regular file", path)
	}
	size := fi.Size()
	if size < snapHeaderLen+4 {
		return nil, fmt.Errorf("%w: file %d bytes, want at least %d", ErrBadSnapshot, size, snapHeaderLen+4)
	}
	data, unmap, err := mmapReadOnly(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("spindex: mapping snapshot: %w", err)
	}
	h, err := parseHierSnapshot(data, g)
	if err != nil {
		unmap()
		return nil, err
	}
	// Serving is random access; start paging the file in behind the boot.
	madviseWillNeed(data)
	h.unmap = unmap
	h.mappedLen = len(data)
	h.finish(HierOptions{})
	return h, nil
}

// parseHierSnapshot validates the header and directory of a version-2
// snapshot and builds the Hier view over it, deferring payload validation
// to a first-touch closure. It is the single decoder: OpenHierMapped feeds
// it the mapping, the snapshot tests and fuzzer feed it raw bytes.
func parseHierSnapshot(data []byte, g *roadnet.Graph) (*Hier, error) {
	if len(data) < snapHeaderLen+4 {
		return nil, fmt.Errorf("%w: truncated header (%d bytes)", ErrBadSnapshot, len(data))
	}
	if [4]byte{data[0], data[1], data[2], data[3]} != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != snapshotVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, v)
	}
	if got := binary.LittleEndian.Uint32(data[24:28]); got != crc32.ChecksumIEEE(data[:snapHeaderLen]) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrBadSnapshot)
	}
	fp := binary.LittleEndian.Uint64(data[8:16])
	n := int(binary.LittleEndian.Uint32(data[16:20]))
	nsec := int(binary.LittleEndian.Uint32(data[20:24]))
	if n != g.NumEdges() {
		return nil, fmt.Errorf("%w: snapshot has %d edges, graph has %d", ErrSnapshotMismatch, n, g.NumEdges())
	}
	if fp != GraphFingerprint(g) {
		return nil, fmt.Errorf("%w: fingerprint %016x, graph %016x", ErrSnapshotMismatch, fp, GraphFingerprint(g))
	}
	const maxSections = 1024
	if nsec > maxSections {
		return nil, fmt.Errorf("%w: %d sections", ErrBadSnapshot, nsec)
	}
	dirStart := snapHeaderLen + 4
	dirEnd := dirStart + hierDirEntryLen*nsec
	if len(data) < dirEnd+4 {
		return nil, fmt.Errorf("%w: truncated directory", ErrBadSnapshot)
	}
	dir := data[dirStart:dirEnd]
	if got := binary.LittleEndian.Uint32(data[dirEnd:]); got != crc32.ChecksumIEEE(dir) {
		return nil, fmt.Errorf("%w: directory checksum mismatch", ErrBadSnapshot)
	}

	type section struct {
		payload []byte
		crc     uint32
	}
	secs := make(map[uint32]section, nsec)
	for i := 0; i < nsec; i++ {
		e := dir[hierDirEntryLen*i:]
		typ := binary.LittleEndian.Uint32(e[0:4])
		off := binary.LittleEndian.Uint64(e[4:12])
		length := binary.LittleEndian.Uint64(e[12:20])
		crc := binary.LittleEndian.Uint32(e[20:24])
		if off < uint64(dirEnd+4) || off+length < off || off+length > uint64(len(data)) {
			return nil, fmt.Errorf("%w: section %d extent [%d,+%d) out of bounds", ErrBadSnapshot, typ, off, length)
		}
		if _, dup := secs[typ]; dup {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrBadSnapshot, typ)
		}
		secs[typ] = section{payload: data[off : off+length], crc: crc}
	}
	need := func(typ uint32, wantLen int) (section, error) {
		s, ok := secs[typ]
		if !ok {
			return section{}, fmt.Errorf("%w: missing section %d", ErrBadSnapshot, typ)
		}
		if wantLen >= 0 && len(s.payload) != wantLen {
			return section{}, fmt.Errorf("%w: section %d is %d bytes, want %d", ErrBadSnapshot, typ, len(s.payload), wantLen)
		}
		return s, nil
	}
	rank, err := need(hierSecRank, 4*n)
	if err != nil {
		return nil, err
	}
	arcs, err := need(hierSecArcs, -1)
	if err != nil {
		return nil, err
	}
	if len(arcs.payload)%hierArcBytes != 0 {
		return nil, fmt.Errorf("%w: arc section is %d bytes, not a multiple of %d", ErrBadSnapshot, len(arcs.payload), hierArcBytes)
	}
	fwdIdx, err := need(hierSecFwdIdx, 4*(n+1))
	if err != nil {
		return nil, err
	}
	fwdList, err := need(hierSecFwdList, -1)
	if err != nil {
		return nil, err
	}
	bwdIdx, err := need(hierSecBwdIdx, 4*(n+1))
	if err != nil {
		return nil, err
	}
	bwdList, err := need(hierSecBwdList, -1)
	if err != nil {
		return nil, err
	}
	meta, err := need(hierSecMeta, hierMetaLen)
	if err != nil {
		return nil, err
	}
	if len(fwdList.payload)%4 != 0 || len(bwdList.payload)%4 != 0 {
		return nil, fmt.Errorf("%w: arc list section length not a multiple of 4", ErrBadSnapshot)
	}
	numArcs := len(arcs.payload) / hierArcBytes
	shortcuts := int(binary.LittleEndian.Uint64(meta.payload))
	if shortcuts < 0 || shortcuts > numArcs {
		return nil, fmt.Errorf("%w: %d shortcuts with %d arcs", ErrBadSnapshot, shortcuts, numArcs)
	}

	h := &Hier{
		g: g, n: n,
		rank: rank.payload, arcs: arcs.payload,
		fwdIdx: fwdIdx.payload, fwdList: fwdList.payload,
		bwdIdx: bwdIdx.payload, bwdList: bwdList.payload,
		numArcs: numArcs, shortcuts: shortcuts,
	}
	all := []section{rank, arcs, fwdIdx, fwdList, bwdIdx, bwdList, meta}
	payloads := make([][]byte, len(all))
	crcs := make([]uint32, len(all))
	for i, s := range all {
		payloads[i], crcs[i] = s.payload, s.crc
	}
	h.payloadCheck = func() error { return h.validatePayloads(payloads, crcs) }
	return h, nil
}

// validatePayloads is the first-touch verification of a mapped hierarchy:
// every section CRC, then the structural invariants the query path relies
// on to never index out of bounds or loop.
func (h *Hier) validatePayloads(payloads [][]byte, crcs []uint32) error {
	for i, payload := range payloads {
		if crc32.ChecksumIEEE(payload) != crcs[i] {
			return fmt.Errorf("%w: section checksum mismatch", ErrBadSnapshot)
		}
	}
	n := h.n
	// rank must be a permutation of [0, n).
	seen := make([]bool, n)
	for v := 0; v < n; v++ {
		r := binary.LittleEndian.Uint32(h.rank[4*v:])
		if r >= uint32(n) || seen[r] {
			return fmt.Errorf("%w: rank section is not a permutation", ErrBadSnapshot)
		}
		seen[r] = true
	}
	// Arcs: endpoints in range, shortcut constituents strictly smaller
	// (unpack termination) and chained u→v→w like the shortcut u→w they
	// expand, weights positive and finite.
	for a := int32(0); a < int32(h.numArcs); a++ {
		from, to := h.arcFrom(a), h.arcTo(a)
		if from < 0 || int(from) >= n || to < 0 || int(to) >= n || from == to {
			return fmt.Errorf("%w: arc %d endpoints out of range", ErrBadSnapshot, a)
		}
		l, r := h.arcLeft(a), h.arcRight(a)
		if (l < 0) != (r < 0) || l >= a || r >= a || l < -1 || r < -1 {
			return fmt.Errorf("%w: arc %d constituents invalid", ErrBadSnapshot, a)
		}
		if l >= 0 && (h.arcFrom(l) != from || h.arcTo(l) != h.arcFrom(r) || h.arcTo(r) != to) {
			return fmt.Errorf("%w: arc %d constituents do not chain", ErrBadSnapshot, a)
		}
		if w := h.arcWeight(a); !(w > 0) || math.IsInf(w, 1) {
			return fmt.Errorf("%w: arc %d weight invalid", ErrBadSnapshot, a)
		}
	}
	// CSR offsets: zero-based, monotone, closed by the list length; every
	// referenced arc id in range and owned by the node whose list holds it
	// (the search walks parent arcs back through their owners).
	check := func(idx, list []byte, owner func(int32) int32) error {
		prev := uint32(0)
		if binary.LittleEndian.Uint32(idx) != 0 {
			return fmt.Errorf("%w: adjacency index does not start at 0", ErrBadSnapshot)
		}
		for v := 0; v <= n; v++ {
			off := binary.LittleEndian.Uint32(idx[4*v:])
			if off < prev {
				return fmt.Errorf("%w: adjacency index not monotone", ErrBadSnapshot)
			}
			prev = off
		}
		if int(prev) != len(list)/4 {
			return fmt.Errorf("%w: adjacency index ends at %d, list has %d arcs", ErrBadSnapshot, prev, len(list)/4)
		}
		for v := 0; v < n; v++ {
			lo, hi := binary.LittleEndian.Uint32(idx[4*v:]), binary.LittleEndian.Uint32(idx[4*v+4:])
			for i := lo; i < hi; i++ {
				a := binary.LittleEndian.Uint32(list[4*i:])
				if a >= uint32(h.numArcs) {
					return fmt.Errorf("%w: adjacency references arc %d of %d", ErrBadSnapshot, a, h.numArcs)
				}
				if owner(int32(a)) != int32(v) {
					return fmt.Errorf("%w: adjacency of node %d holds arc %d", ErrBadSnapshot, v, a)
				}
			}
		}
		return nil
	}
	if err := check(h.fwdIdx, h.fwdList, h.arcFrom); err != nil {
		return err
	}
	return check(h.bwdIdx, h.bwdList, h.arcTo)
}
