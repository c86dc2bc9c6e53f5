package core

import (
	"math/rand"
	"testing"

	"press/internal/geo"
	"press/internal/traj"
)

// Batch compression must attach a summary whose MBR equals the path
// polyline's MBR bit for bit and whose time bounds are the BTC output's
// first/last retained timestamps.
func TestCompressAttachesSummary(t *testing.T) {
	c, genPath, rng := testCompressor(t, 50, 30)
	for trial := 0; trial < 40; trial++ {
		tr := synthTrajectory(c, genPath(rng.Intn(25)+1), rng)
		ct, err := c.Compress(tr)
		if err != nil {
			t.Fatal(err)
		}
		if ct.Summary == nil {
			t.Fatal("Compress left Summary nil")
		}
		if want := c.Graph.PathPolyline(tr.Path).MBR(); ct.Summary.MBR != want {
			t.Fatalf("trial %d: summary MBR %+v want %+v", trial, ct.Summary.MBR, want)
		}
		n := len(ct.Temporal)
		if ct.Summary.T0 != ct.Temporal[0].T || ct.Summary.T1 != ct.Temporal[n-1].T {
			t.Fatalf("trial %d: time bounds [%v,%v] want [%v,%v]",
				trial, ct.Summary.T0, ct.Summary.T1, ct.Temporal[0].T, ct.Temporal[n-1].T)
		}
	}
}

// The online compressor's summary must match the reference's exactly: the
// path polyline's MBR and the retained sequence's time bounds.
func TestOnlineSummaryMatchesBatch(t *testing.T) {
	c, genPath, rng := testCompressor(t, 50, 30)
	o, err := NewOnlineCompressor(c)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 60; trial++ {
		tr := synthTrajectory(c, genPath(rng.Intn(25)+1), rng)
		want, err := compressReference(c, tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := streamThrough(o, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got.Summary == nil || *got.Summary != *want.Summary {
			t.Fatalf("trial %d: online summary %+v batch %+v", trial, got.Summary, want.Summary)
		}
	}
}

func TestBoundingSummaryMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		s := BoundingSummary{
			MBR: geo.MBR{
				MinX: rng.NormFloat64() * 1e4, MinY: rng.NormFloat64() * 1e4,
				MaxX: rng.NormFloat64() * 1e4, MaxY: rng.NormFloat64() * 1e4,
			},
			T0: rng.Float64() * 1e6, T1: rng.Float64() * 1e6,
		}
		b := s.Marshal()
		got, err := UnmarshalBoundingSummary(b[:])
		if err != nil {
			t.Fatal(err)
		}
		if *got != s {
			t.Fatalf("round trip %+v != %+v", *got, s)
		}
	}
	// Inverted (empty) time bounds — the infinities — must survive too.
	empty := emptySummary(t)
	b := empty.Marshal()
	got, err := UnmarshalBoundingSummary(b[:])
	if err != nil {
		t.Fatal(err)
	}
	if *got != *empty {
		t.Fatalf("empty round trip %+v != %+v", *got, *empty)
	}
	if _, err := UnmarshalBoundingSummary(b[:BoundingSummaryLen-1]); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestBoundingSummaryOverlaps(t *testing.T) {
	s := &BoundingSummary{T0: 100, T1: 200}
	for _, tc := range []struct {
		t1, t2 float64
		want   bool
	}{
		{0, 50, false}, {0, 100, true}, {150, 160, true},
		{200, 300, true}, {201, 300, false}, {0, 1e9, true},
	} {
		if got := s.Overlaps(tc.t1, tc.t2); got != tc.want {
			t.Errorf("Overlaps(%v,%v) = %v want %v", tc.t1, tc.t2, got, tc.want)
		}
	}
	// Empty temporal: never alive, exactly like the fleet-index semantics.
	if emptySummary(t).Overlaps(0, 1e18) {
		t.Error("empty summary overlaps everything")
	}
}

// emptySummary is the summary Compress attaches to an empty trajectory.
func emptySummary(t *testing.T) *BoundingSummary {
	t.Helper()
	c, _, _ := testCompressor(t, 0, 0)
	ct, err := c.Compress(&traj.Trajectory{})
	if err != nil {
		t.Fatal(err)
	}
	return ct.Summary
}
