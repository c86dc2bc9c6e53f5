package core

import (
	"math/rand"
	"testing"

	"press/internal/traj"
)

// The streaming compressors must produce the output of the batch reference
// loops on every input.
func TestOnlineSPMatchesBatch(t *testing.T) {
	g, tab := testGrid(t)
	rng := rand.New(rand.NewSource(61))
	o := NewOnlineSP(tab) // one shared instance: Flush must reset
	for trial := 0; trial < 200; trial++ {
		path := randomWalk(g, rng, rng.Intn(40)+1)
		want := spCompressReference(tab, path)
		for _, e := range path {
			o.Push(e)
		}
		if got := o.Flush(); !got.Equal(want) {
			t.Fatalf("trial %d:\n batch  %v\n online %v\n input %v", trial, want, got, path)
		}
	}
}

func TestOnlineSPReset(t *testing.T) {
	g, tab := testGrid(t)
	rng := rand.New(rand.NewSource(62))
	o := NewOnlineSP(tab)
	for _, e := range randomWalk(g, rng, 10) {
		o.Push(e)
	}
	o.Reset()
	p2 := randomWalk(g, rng, 12)
	for _, e := range p2 {
		o.Push(e)
	}
	if !o.Flush().Equal(spCompressReference(tab, p2)) {
		t.Fatal("post-reset stream differs from batch")
	}
}

func TestOnlineBTCMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	bounds := []struct{ tau, eta float64 }{
		{tau: 0, eta: 0}, {tau: 50, eta: 30}, {tau: 1000, eta: 1000}, {tau: 10, eta: 300},
	}
	for trial := 0; trial < 300; trial++ {
		ts := randTemporal(rng, rng.Intn(70)+1, 0.3)
		b := bounds[trial%len(bounds)]
		want := btcReference(ts, b.tau, b.eta)
		o := NewOnlineBTC(b.tau, b.eta)
		for _, e := range ts {
			o.Push(e)
		}
		got := o.Flush()
		if len(got) != len(want) {
			t.Fatalf("trial %d: online %d points, batch %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: point %d differs", trial, i)
			}
		}
	}
}

func TestOnlineBTCBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	o := NewOnlineBTC(75, 45)
	for trial := 0; trial < 100; trial++ {
		ts := randTemporal(rng, rng.Intn(60)+3, 0.25)
		for _, e := range ts {
			o.Push(e)
		}
		got := o.Flush()
		if v := TSND(ts, got); v > 75+1e-6 {
			t.Fatalf("TSND %v", v)
		}
		if v := NSTD(ts, got); v > 45+1e-6 {
			t.Fatalf("NSTD %v", v)
		}
	}
}

func TestOnlineBTCReset(t *testing.T) {
	o := NewOnlineBTC(10, 10)
	o.Push(traj.Entry{D: 0, T: 0})
	o.Push(traj.Entry{D: 100, T: 10})
	o.Reset()
	ts := traj.Temporal{{D: 0, T: 0}, {D: 50, T: 5}, {D: 100, T: 10}}
	for _, e := range ts {
		o.Push(e)
	}
	got, want := o.Flush(), btcReference(ts, 10, 10)
	if len(got) != len(want) {
		t.Fatalf("post-reset %d points want %d", len(got), len(want))
	}
}

func TestOnlineSingleElement(t *testing.T) {
	_, tab := testGrid(t)
	o := NewOnlineSP(tab)
	o.Push(3)
	if edges := o.Flush(); !edges.Equal(traj.Path{3}) {
		t.Errorf("single edge stream = %v", edges)
	}
	b := NewOnlineBTC(5, 5)
	b.Push(traj.Entry{D: 0, T: 0})
	if pts := b.Flush(); len(pts) != 1 {
		t.Errorf("single tuple stream = %v", pts)
	}
}
