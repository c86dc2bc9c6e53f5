package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"press/internal/roadnet"
	"press/internal/spindex"
	"press/internal/traj"
)

// Compressor is the full PRESS pipeline head: it owns the static structures
// (shortest-path table, FST codebook) and the temporal error bounds, and
// turns re-formatted trajectories into Compressed records and back.
type Compressor struct {
	Graph *roadnet.Graph
	SP    spindex.SP
	CB    *Codebook
	Tau   float64 // maximal tolerated TSND, meters
	Eta   float64 // maximal tolerated NSTD, seconds
}

// NewCompressor assembles a compressor. Tau and Eta may be zero for the
// strictest temporal bounds.
func NewCompressor(g *roadnet.Graph, sp spindex.SP, cb *Codebook, tau, eta float64) (*Compressor, error) {
	if g == nil || sp == nil || cb == nil {
		return nil, errors.New("core: nil component")
	}
	if tau < 0 || eta < 0 {
		return nil, errors.New("core: negative error bound")
	}
	return &Compressor{Graph: g, SP: sp, CB: cb, Tau: tau, Eta: eta}, nil
}

// HSC returns the spatial compressor view of this compressor.
func (c *Compressor) HSC() *HSC { return NewHSC(c.SP, c.CB) }

// Compressed is one compressed trajectory: a lossless spatial code plus an
// error-bounded temporal sequence that keeps the original (d, t) format, so
// temporal queries run without any decompression (§1).
type Compressed struct {
	Spatial  *SpatialCode
	Temporal traj.Temporal

	// Summary is the compressed-domain query filter derived at compress
	// time. It is NOT part of the Marshal wire format and does not count
	// toward SizeBytes (the paper's compression-ratio metric); the store
	// layer persists it alongside the payload. May be nil for records
	// stored without a summary.
	Summary *BoundingSummary
}

// SizeBytes is the serialized storage cost: a 4-byte spatial bit-length
// header, the packed spatial bits, a 4-byte tuple count, and 8 bytes per
// temporal tuple ((d, t) as float32 pairs — centimeter/sub-second precision
// at city scale, far below any meaningful TSND/NSTD bound).
func (ct *Compressed) SizeBytes() int {
	return 4 + ct.Spatial.SizeBytes() + 4 + 8*len(ct.Temporal)
}

// Compress compresses one re-formatted trajectory: it pushes every edge,
// then every sample, through an OnlineCompressor and flushes. A path edge
// outside the network, or a temporal sequence that fails Temporal.Validate,
// is refused with an error.
func (c *Compressor) Compress(t *traj.Trajectory) (*Compressed, error) {
	o := c.online()
	// Four retained elements before the first growth, as SPCompress and
	// BTC size theirs.
	o.sp.out, o.btc.out = make(traj.Path, 0, 4), make(traj.Temporal, 0, 4)
	for _, e := range t.Path {
		if err := o.PushEdge(e); err != nil {
			return nil, err
		}
	}
	for _, p := range t.Temporal {
		if err := o.PushSample(p); err != nil {
			return nil, err
		}
	}
	return o.Flush()
}

// Decompress recovers the trajectory: the spatial path exactly, the temporal
// sequence within the configured TSND/NSTD bounds (BTC output needs no
// decompression, it already is a valid temporal sequence).
func (c *Compressor) Decompress(ct *Compressed) (*traj.Trajectory, error) {
	path, err := c.HSC().Decompress(ct.Spatial)
	if err != nil {
		return nil, err
	}
	return &traj.Trajectory{Path: path, Temporal: ct.Temporal.Clone()}, nil
}

// CompressAll compresses a batch over a worker pool — the "Paralleled" in
// PRESS. Order is preserved. The first error aborts the batch (remaining
// items are skipped); use CompressBatch when every item should be attempted.
func (c *Compressor) CompressAll(ts []*traj.Trajectory) ([]*Compressed, error) {
	out, errs := c.compressBatch(ts, 0, true)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: trajectory %d: %w", i, err)
		}
	}
	return out, nil
}

// CompressBatch compresses a batch over a pool of the given number of
// workers (0 or negative means GOMAXPROCS). Unlike CompressAll it never
// fails fast: every item is attempted, out[i] and errs[i] report item i's
// outcome individually (exactly one of the two is non-nil per index). Output
// ordering is deterministic: out[i] always corresponds to ts[i] and is
// byte-identical to what the serial path produces, regardless of worker
// count or scheduling.
func (c *Compressor) CompressBatch(ts []*traj.Trajectory, workers int) ([]*Compressed, []error) {
	return c.compressBatch(ts, workers, false)
}

func (c *Compressor) compressBatch(ts []*traj.Trajectory, workers int, failFast bool) ([]*Compressed, []error) {
	out := make([]*Compressed, len(ts))
	errs := make([]error, len(ts))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ts) {
		workers = len(ts)
	}
	var stop atomic.Bool
	if workers <= 1 {
		for i, t := range ts {
			out[i], errs[i] = c.Compress(t)
			if errs[i] != nil && failFast {
				break
			}
		}
		return out, errs
	}
	var (
		wg   sync.WaitGroup
		next int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(ts) || stop.Load() {
					return
				}
				out[i], errs[i] = c.Compress(ts[i])
				if errs[i] != nil && failFast {
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return out, errs
}

// Marshal serializes a compressed trajectory to the binary layout counted by
// SizeBytes (little endian).
func (ct *Compressed) Marshal() []byte {
	buf := make([]byte, 0, ct.SizeBytes())
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(ct.Spatial.NBits))
	buf = append(buf, tmp[:4]...)
	buf = append(buf, ct.Spatial.Bits[:(ct.Spatial.NBits+7)/8]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(ct.Temporal)))
	buf = append(buf, tmp[:4]...)
	for _, e := range ct.Temporal {
		binary.LittleEndian.PutUint32(tmp[:4], math.Float32bits(float32(e.D)))
		buf = append(buf, tmp[:4]...)
		binary.LittleEndian.PutUint32(tmp[:4], math.Float32bits(float32(e.T)))
		buf = append(buf, tmp[:4]...)
	}
	return buf
}

// UnmarshalCompressed parses the layout written by Marshal.
func UnmarshalCompressed(b []byte) (*Compressed, error) {
	if len(b) < 8 {
		return nil, errors.New("core: short buffer")
	}
	nbits := int(binary.LittleEndian.Uint32(b[:4]))
	b = b[4:]
	nbytes := (nbits + 7) / 8
	if len(b) < nbytes+4 {
		return nil, errors.New("core: truncated spatial code")
	}
	bits := append([]byte(nil), b[:nbytes]...)
	b = b[nbytes:]
	count := int(binary.LittleEndian.Uint32(b[:4]))
	b = b[4:]
	if len(b) < count*8 {
		return nil, errors.New("core: truncated temporal sequence")
	}
	ts := make(traj.Temporal, count)
	for i := 0; i < count; i++ {
		ts[i].D = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[i*8:])))
		ts[i].T = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[i*8+4:])))
	}
	return &Compressed{Spatial: &SpatialCode{Bits: bits, NBits: nbits}, Temporal: ts}, nil
}
