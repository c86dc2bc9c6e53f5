// Command pressbench regenerates every table and figure of the PRESS
// evaluation (§6) on the synthetic workload. Each figure prints as an
// aligned text table: one row per x value, one column per series, with the
// paper's reported numbers quoted in the notes for comparison.
//
//	pressbench                  # run everything at the default scale
//	pressbench -fig fig14       # one figure
//	pressbench -trips 500       # larger fleet (slower, smoother curves)
//
// Figure ids: fig10a fig10b fig11a fig11b fig12a fig12b fig13 fig14 fig15
// fig16 fig17 aux, plus two extensions: ablation (per-stage contribution)
// and qscale (query time vs trajectory length). System throughput and
// latency are measured by the perf ledger under bench/, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"press/internal/experiments"
	"press/internal/query"
)

func main() {
	var (
		fig   = flag.String("fig", "all", "figure id to run (or 'all')")
		trips = flag.Int("trips", 150, "fleet size")
	)
	flag.Parse()

	// The runners read env and eng, which exist only once the id is known
	// to be valid: a bad -fig fails before the workload is generated.
	var (
		env *experiments.Env
		eng *query.Engine
	)
	type runner struct {
		id  string
		run func() error
	}
	show := func(f *experiments.Figure, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(f.Format())
		return nil
	}
	runners := []runner{
		{"fig10a", func() error {
			f, err := experiments.RunFig10a(env, nil, 40)
			return show(f, err)
		}},
		{"fig10b", func() error {
			f, err := experiments.RunFig10b(env, nil)
			return show(f, err)
		}},
		{"fig11a", func() error {
			f, err := experiments.RunFig11a(env, nil)
			return show(f, err)
		}},
		{"fig11b", func() error {
			f, err := experiments.RunFig11b(env, nil)
			return show(f, err)
		}},
		{"fig12a", func() error {
			f, err := experiments.RunFig12a(env, nil)
			return show(f, err)
		}},
		{"fig12b", func() error {
			f, err := experiments.RunFig12b(env, nil)
			return show(f, err)
		}},
		{"fig13", func() error {
			a, b, err := experiments.RunFig13(env, nil)
			if err != nil {
				return err
			}
			fmt.Println(a.Format())
			fmt.Println(b.Format())
			return nil
		}},
		{"fig14", func() error {
			f, err := experiments.RunFig14(env, nil)
			return show(f, err)
		}},
		{"fig15", func() error {
			f, err := experiments.RunFig15(env, eng, nil, 0)
			return show(f, err)
		}},
		{"fig16", func() error {
			f, err := experiments.RunFig16(env, eng, nil, 0)
			return show(f, err)
		}},
		{"fig17", func() error {
			f, err := experiments.RunFig17(env, eng, 0)
			return show(f, err)
		}},
		{"aux", func() error {
			f, err := experiments.RunAuxSizes(env, eng)
			return show(f, err)
		}},
		{"ablation", func() error {
			f, err := experiments.RunAblation(env)
			return show(f, err)
		}},
		{"qscale", func() error {
			f, err := experiments.RunQueryScaling(nil, 0)
			return show(f, err)
		}},
	}
	var selected []runner
	for _, r := range runners {
		if *fig == "all" || strings.EqualFold(*fig, r.id) {
			selected = append(selected, r)
		}
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("unknown figure %q", *fig))
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "generating %d-trip workload...\n", *trips)
	var err error
	if env, err = experiments.NewEnv(*trips); err != nil {
		fatal(err)
	}
	// Materialize the shortest-path rows up front over every core (the
	// paper's preprocessing), so every figure measures warm-path behavior.
	// qscale builds its own environments and never reads this table.
	if !strings.EqualFold(*fig, "qscale") {
		env.Tab.PrecomputeAllParallel(runtime.GOMAXPROCS(0))
	}
	if eng, err = query.NewEngine(env.DS.Graph, env.Tab, env.CB); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "workload ready in %v (%d edges, %d trajectories)\n\n",
		time.Since(start).Round(time.Millisecond), env.DS.Graph.NumEdges(), len(env.DS.Truth))

	for _, r := range selected {
		t0 := time.Now()
		if err := r.run(); err != nil {
			fatal(fmt.Errorf("%s: %w", r.id, err))
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", r.id, time.Since(t0).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pressbench:", err)
	os.Exit(1)
}
