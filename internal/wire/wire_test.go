package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"press/internal/roadnet"
	"press/internal/traj"
)

// obsGroup is the decoded form used by test helpers.
type obsGroup struct {
	id    uint64
	flush bool
	obs   []Obs
}

// randGroups builds a deterministic mixed workload: edge-only, sample-only
// and combined points across several vehicles.
func randGroups(rng *rand.Rand, groups, maxPoints int) []obsGroup {
	out := make([]obsGroup, groups)
	for g := range out {
		n := rng.Intn(maxPoints + 1)
		obs := make([]Obs, n)
		for i := range obs {
			o := Obs{Edge: roadnet.NoEdge}
			switch rng.Intn(3) {
			case 0:
				o.Edge = roadnet.EdgeID(rng.Intn(1000))
			case 1:
				o.HasSample = true
				o.Sample = traj.Entry{D: rng.Float64() * 1e4, T: rng.Float64() * 1e5}
			default:
				o.Edge = roadnet.EdgeID(rng.Intn(1000))
				o.HasSample = true
				o.Sample = traj.Entry{D: rng.Float64() * 1e4, T: rng.Float64() * 1e5}
			}
			obs[i] = o
		}
		out[g] = obsGroup{id: rng.Uint64() % 512, flush: rng.Intn(2) == 0, obs: obs}
	}
	return out
}

func encodeGroups(e *Encoder, groups []obsGroup) []byte {
	e.Reset()
	for _, g := range groups {
		e.StartGroup(g.id, g.flush)
		for _, o := range g.obs {
			e.Obs(o)
		}
	}
	return e.Finish()
}

func decodeAll(t *testing.T, data []byte) []obsGroup {
	t.Helper()
	rd := NewReader(bytes.NewReader(data), 0)
	var out []obsGroup
	for {
		fr, err := rd.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		it := fr.Groups()
		for it.Next() {
			g := obsGroup{id: it.ID(), flush: it.Flush()}
			var o Obs
			for it.Point(&o) {
				g.obs = append(g.obs, o)
			}
			out = append(out, g)
		}
		if err := it.Err(); err != nil {
			t.Fatalf("walk: %v", err)
		}
	}
}

func TestRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var e Encoder
	for trial := 0; trial < 50; trial++ {
		want := randGroups(rng, rng.Intn(8), 40)
		frame := encodeGroups(&e, want)
		got := decodeAll(t, frame)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].id != want[i].id || got[i].flush != want[i].flush {
				t.Fatalf("trial %d group %d: header %+v != %+v", trial, i, got[i], want[i])
			}
			if len(got[i].obs) != len(want[i].obs) {
				t.Fatalf("trial %d group %d: %d points, want %d", trial, i, len(got[i].obs), len(want[i].obs))
			}
			for j := range want[i].obs {
				if got[i].obs[j] != want[i].obs[j] {
					t.Fatalf("trial %d group %d point %d: %+v != %+v",
						trial, i, j, got[i].obs[j], want[i].obs[j])
				}
			}
		}
	}
}

func TestMultipleFramesOneStream(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var e Encoder
	var stream []byte
	var want []obsGroup
	for f := 0; f < 5; f++ {
		groups := randGroups(rng, 3, 10)
		want = append(want, groups...)
		stream = append(stream, encodeGroups(&e, groups)...)
	}
	got := decodeAll(t, stream)
	if len(got) != len(want) {
		t.Fatalf("%d groups across frames, want %d", len(got), len(want))
	}
}

func TestEmptyFrameAndEmptyGroup(t *testing.T) {
	var e Encoder
	e.Reset()
	got := decodeAll(t, append([]byte{}, e.Finish()...))
	if len(got) != 0 {
		t.Fatalf("empty frame decoded %d groups", len(got))
	}
	e.Reset()
	e.StartGroup(7, true) // pure flush marker
	got = decodeAll(t, e.Finish())
	if len(got) != 1 || got[0].id != 7 || !got[0].flush || len(got[0].obs) != 0 {
		t.Fatalf("flush-only group decoded as %+v", got)
	}
}

// readAllFrames walks data to the end, returning the first error (io.EOF
// for a clean stream) joined with any group-walk error.
func readAllFrames(data []byte, maxPayload int) error {
	rd := NewReader(bytes.NewReader(data), maxPayload)
	for {
		fr, err := rd.Next()
		if err != nil {
			return err
		}
		it := fr.Groups()
		var o Obs
		for it.Next() {
			for it.Point(&o) {
			}
		}
		if err := it.Err(); err != nil {
			return err
		}
	}
}

// TestTruncationBattery cuts a valid frame at every byte boundary: every
// prefix must fail with a typed error (never panic, never succeed), the
// zero-byte prefix with a clean io.EOF.
func TestTruncationBattery(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var e Encoder
	frame := encodeGroups(&e, randGroups(rng, 4, 12))
	for cut := 0; cut < len(frame); cut++ {
		err := readAllFrames(frame[:cut], 0)
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("cut 0: %v, want io.EOF", err)
			}
			continue
		}
		if err == nil || err == io.EOF {
			t.Fatalf("cut %d: decoded a truncated frame (err=%v)", cut, err)
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadFrame) &&
			!errors.Is(err, ErrChecksum) && !errors.Is(err, ErrBadMagic) &&
			!errors.Is(err, ErrBadVersion) && !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("cut %d: untyped error %v", cut, err)
		}
	}
}

// TestCorruptionBattery flips one bit at every byte of a valid frame: the
// decoder must answer with a typed error (checksum for payload damage,
// magic/version/frame errors for header damage) or — only for a flip inside
// the CRC field's own bytes — ErrChecksum, and must never panic or accept
// silently-altered points. (A flip in the length prefix may legitimately
// surface as truncation or an oversize refusal.)
func TestCorruptionBattery(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var e Encoder
	frame := encodeGroups(&e, randGroups(rng, 4, 12))
	for pos := 0; pos < len(frame); pos++ {
		mut := append([]byte(nil), frame...)
		mut[pos] ^= 0x40
		err := readAllFrames(mut, 0)
		if err == nil || err == io.EOF {
			t.Fatalf("flip at %d: accepted a corrupt frame", pos)
		}
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrBadMagic) &&
			!errors.Is(err, ErrBadVersion) && !errors.Is(err, ErrBadFrame) &&
			!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("flip at %d: untyped error %v", pos, err)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var e Encoder
	frame := encodeGroups(&e, randGroups(rng, 2, 64))
	err := readAllFrames(frame, 8)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("tiny cap: %v, want ErrFrameTooLarge", err)
	}
}

func TestPointOutsideGroupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Edge outside a group did not panic")
		}
	}()
	var e Encoder
	e.Reset()
	e.Edge(3)
}

// TestDecodeAllocFree is the in-test half of the allocation-regression
// gate (scripts/allocgate.sh drives the -benchmem half): decoding a frame
// through a warm Reader must not allocate at all, which implies 0
// allocations per point on the ingest hot path.
func TestDecodeAllocFree(t *testing.T) {
	frame := benchFrame()
	src := bytes.NewReader(frame)
	rd := NewReader(src, 0)
	var o Obs
	decodeOnce := func() {
		src.Reset(frame)
		rd.Reset(src)
		for {
			fr, err := rd.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			it := fr.Groups()
			for it.Next() {
				for it.Point(&o) {
				}
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeOnce() // warm the payload buffer
	if allocs := testing.AllocsPerRun(100, decodeOnce); allocs != 0 {
		t.Fatalf("frame decode allocates %.1f times per frame, want 0", allocs)
	}
}

// benchFrame is the canonical hot-path workload: one frame, 64 vehicles x
// 16 combined points (1024 points total).
func benchFrame() []byte {
	var e Encoder
	e.Reset()
	for v := 0; v < 64; v++ {
		e.StartGroup(uint64(v), v%4 == 0)
		for i := 0; i < 16; i++ {
			e.Obs(Obs{
				Edge:      roadnet.EdgeID(v*16 + i),
				Sample:    traj.Entry{D: float64(i) * 30, T: float64(i) * 15},
				HasSample: true,
			})
		}
	}
	return append([]byte(nil), e.Finish()...)
}

// BenchmarkFrameDecode measures the binary ingest hot path: full frame
// validation (header, CRC) plus decoding every point of a 64-vehicle,
// 1024-point frame. Run with -benchmem: the allocation gate requires
// 0 allocs/op (and therefore 0 allocs/point).
func BenchmarkFrameDecode(b *testing.B) {
	frame := benchFrame()
	const points = 64 * 16
	src := bytes.NewReader(frame)
	rd := NewReader(src, 0)
	var o Obs
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(frame)
		rd.Reset(src)
		for {
			fr, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			it := fr.Groups()
			for it.Next() {
				for it.Point(&o) {
				}
			}
			if err := it.Err(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*points), "ns/point")
}

// BenchmarkFrameEncode is the client-side counterpart of the decode
// benchmark.
func BenchmarkFrameEncode(b *testing.B) {
	var e Encoder
	const points = 64 * 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		for v := 0; v < 64; v++ {
			e.StartGroup(uint64(v), v%4 == 0)
			for j := 0; j < 16; j++ {
				e.Obs(Obs{
					Edge:      roadnet.EdgeID(v*16 + j),
					Sample:    traj.Entry{D: float64(j) * 30, T: float64(j) * 15},
					HasSample: true,
				})
			}
		}
		_ = e.Finish()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*points), "ns/point")
}
