package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// closedLoop runs do(worker, i) from `workers` goroutines, each taking the
// next i only after its previous call returned, until next reports the
// work is over (a count for fixed write sets, a deadline for read phases).
func closedLoop(workers int, next func(i int) bool, do func(worker, i int)) {
	var counter atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(counter.Add(1)) - 1
				if !next(i) {
					return
				}
				do(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// timedClosedLoop is closedLoop over at most limit ops with each op's
// start instant and latency kept. Op indexes are handed out in order and a
// deadline only ever turns later ones away, so the ops that ran are a
// prefix; the result holds exactly those.
func timedClosedLoop(workers, limit int, until time.Time, do func(worker, i int)) *timedOps {
	t := &timedOps{ms: make([]float64, limit), at: make([]float64, limit)}
	var ran atomic.Int64
	start := time.Now()
	closedLoop(workers, func(i int) bool {
		return i < limit && (until.IsZero() || time.Now().Before(until))
	}, func(w, i int) {
		t0 := time.Now()
		do(w, i)
		t.at[i] = t0.Sub(start).Seconds()
		t.ms[i] = float64(time.Since(t0)) / 1e6
		ran.Add(1)
	})
	t.endAt = time.Since(start).Seconds()
	t.ms, t.at = t.ms[:ran.Load()], t.at[:ran.Load()]
	return t
}

// openLoop is the fixed-rate reader: op i is due at start + i/rate whether
// or not the system kept up. One goroutine, one connection, so an op that
// overruns its slot delays the ones behind it — and since each op is timed
// from when it was due, that wait is in the latency, not hidden.
type openLoop struct {
	rate float64 // ops per second

	timedOps           // latency is done - due; at is the due time
	lateMs   []float64 // how late the generator itself sent, per op
}

// run issues ops until stop reports true (checked before each op).
// lateMs records only the generator's own delay: the time between when it
// could have sent (the later of the due time and the previous op's return)
// and when it did.
func (o *openLoop) run(stop func() bool, do func(i int)) {
	interval := time.Duration(float64(time.Second) / o.rate)
	start := time.Now()
	prevDone := start
	for i := 0; !stop(); i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		free := due
		if prevDone.After(free) {
			free = prevDone
		}
		sent := time.Now()
		do(i)
		prevDone = time.Now()
		o.ms = append(o.ms, float64(prevDone.Sub(due))/1e6)
		o.at = append(o.at, due.Sub(start).Seconds())
		o.lateMs = append(o.lateMs, float64(sent.Sub(free))/1e6)
	}
	o.endAt = prevDone.Sub(start).Seconds()
}

// zipfPicker draws ranks in [0, n) with P(rank) ∝ 1/(1+rank)^s; the same
// seed draws the same sequence.
type zipfPicker struct{ z *rand.Zipf }

func newZipfPicker(seed int64, s float64, n int) zipfPicker {
	return zipfPicker{rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(n-1))}
}

func (p zipfPicker) next() int { return int(p.z.Uint64()) }
