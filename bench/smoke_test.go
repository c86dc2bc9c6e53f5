package main

import (
	"os"
	"testing"
)

// TestSmoke runs every workload once untraced and once traced on a small
// city for one second and checks the contract with the driver: every named
// metric of the run's kind comes out, with its unit, finite, and no op
// fails. Timings at this size mean nothing and are not looked at.
func TestSmoke(t *testing.T) {
	oldScale, oldPool, oldRepeats := cityScale, tripPool, setupRepeats
	cityScale, tripPool, setupRepeats = 1, 1600, 1
	defer func() { cityScale, tripPool, setupRepeats = oldScale, oldPool, oldRepeats }()
	defer os.RemoveAll(".bench_build")

	type runner interface {
		run(*result) error
		failed() []string
	}
	build := map[string]func(tr *tracer) (runner, error){
		"batch_gps":   func(tr *tracer) (runner, error) { return newBatchGPS(1, 1, tr) },
		"node_live":   func(tr *tracer) (runner, error) { return newNodeLive(1, 1, tr) },
		"node_scan":   func(tr *tracer) (runner, error) { return newNodeScan(1, 1, tr) },
		"cluster_mix": func(tr *tracer) (runner, error) { return newClusterMix(1, 1, tr) },
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			var tr *tracer
			defs, kind := endToEnd, "end to end"
			if traced {
				tr, defs, kind = newTracer(), perLayer, "per layer"
			}
			t.Run(name+"/"+kind, func(t *testing.T) {
				w, err := build[name](tr)
				if err != nil {
					t.Fatal(err)
				}
				res := newResult()
				if err := w.run(res); err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%d of %d ops failed: %v", res.Failed, res.Attempted, w.failed())
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !traced && (!ok || m.Value <= 0) {
						t.Errorf("%s = %v (reported: %v); end-to-end metrics are never 0", d.Name, m.Value, ok)
					}
				}
				res.fill(defs)
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m := res.Metrics[d.Name]; m.Unit != d.Unit || m.Value != m.Value {
						t.Errorf("%s = %+v, want unit %q", d.Name, m, d.Unit)
					}
				}
				if traced && len(tr.snapshot()) == 0 {
					t.Error("traced run recorded no spans")
				}
			})
		}
	}
}
