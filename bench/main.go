// Command bench is the PRESS performance ledger: four workloads over the
// whole system, end-to-end metrics measured with tracing off and per-layer
// metrics from a separate traced run, every answer checked against the
// uncompressed truth. README.md has the tables; BENCHMARK.json at the
// repository root names this command for the driver.
//
//	bash bench/run.sh                       all four workloads, end to end
//	bash bench/run.sh --trace               all four, per layer
//	bash bench/run.sh --agree               end to end twice, spreads against bounds
//	bash bench/run.sh --workload node_live --seed 7 --seconds 20 --trace 0
//
// The last form is what the driver runs: one workload per process, the last
// line of standard output one JSON object.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "run one workload in this process (default: all four, one child process each)")
	seed := fs.Int64("seed", defaultSeed, "input seed: same seed, same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "timed part of one run, seconds")
	trace := fs.Int("trace", 0, "1: single client, benchmark-owned spans, per-layer metrics; 0: end-to-end metrics")
	agree := fs.Bool("agree", false, "run the end-to-end set twice and compare the spread of every metric with its bound")
	_ = fs.Parse(normalizeArgs(os.Args[1:]))
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds %v: at least 1", *seconds))
	}

	switch {
	case *workload != "":
		os.Exit(runOne(*workload, *seed, *seconds, *trace == 1))
	case *agree:
		os.Exit(runAgree(*seed, *seconds))
	default:
		ok := true
		for _, name := range workloadNames {
			if _, err := runChild(name, *seed, *seconds, *trace == 1, true); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				ok = false
			}
		}
		if !ok {
			os.Exit(1)
		}
	}
}

// normalizeArgs lets --trace stand alone (the README's form) as well as
// take the 0 or 1 the driver passes.
func normalizeArgs(args []string) []string {
	out := append([]string(nil), args...)
	for i, a := range out {
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 < len(out) && (out[i+1] == "0" || out[i+1] == "1") {
			continue
		}
		out[i] = "--trace=1"
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs a workload in this process, prints its table and, as the
// last line of standard output, the driver's JSON object. The exit code is
// 0 only if every answer was right.
func runOne(name string, seed int64, seconds float64, traced bool) int {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	type runner interface {
		run(*result) error
		failed() []string
	}
	var w runner
	var err error
	switch name {
	case "batch_gps":
		w, err = newBatchGPS(seed, seconds, tr)
	case "node_live":
		w, err = newNodeLive(seed, seconds, tr)
	case "node_scan":
		w, err = newNodeScan(seed, seconds, tr)
	case "cluster_mix":
		w, err = newClusterMix(seed, seconds, tr)
	default:
		err = fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		fatal(err)
	}
	meta := newMeta(name, seed, seconds, traced)
	res := newResult()
	if err := w.run(res); err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		if err := tr.write(fmt.Sprintf("%s/trace_%s.json", outDir(), name), meta); err != nil {
			fatal(err)
		}
	}
	res.fill(defs)
	for _, d := range defs { // only the run's own kind of metric goes to the driver
		if v := res.Metrics[d.Name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			fatal(fmt.Errorf("%s: metric %s is %v", name, d.Name, v))
		}
	}
	res.Correct = res.Failed == 0
	for dir, n := range res.samples {
		if !traced && !meetsFloor(n) {
			res.note("INVALID: only %d %s samples, below the floor of %d", n, dir, sampleFloor)
		}
	}
	if err := writeLedger(meta, res); err != nil {
		fatal(err)
	}
	printTable(os.Stdout, meta, res, defs)
	for _, why := range w.failed() {
		fmt.Fprintln(os.Stderr, "bench: failed:", why)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process, so that set-up time and
// peak resident memory are that workload's alone, and returns the result it
// printed. The child is waited for before returning.
func runChild(name string, seed int64, seconds float64, traced, echo bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if echo {
		os.Stdout.Write(out)
	}
	if err != nil {
		return nil, err
	}
	out = bytes.TrimRight(out, "\n")
	res := newResult()
	if err := json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], res); err != nil {
		return nil, fmt.Errorf("child's last line is not a result: %w", err)
	}
	return res, nil
}

// runAgree is the second acceptance criterion made executable: two sets of
// end-to-end runs on the same tree and seed, every metric's relative
// difference printed beside its bound; a difference beyond its bound fails,
// and so does any difference at all in a metric that must repeat exactly.
func runAgree(seed int64, seconds float64) int {
	code := 0
	for _, name := range workloadNames {
		var sets [2]*result
		for k := range sets {
			res, err := runChild(name, seed, seconds, false, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			sets[k] = res
		}
		fmt.Printf("%s  seed=%d seconds=%g nproc=%d\n", name, seed, seconds, nproc())
		fmt.Printf("  %-26s %14s %14s %9s %7s\n", "metric", "first", "second", "spread", "bound")
		for _, d := range endToEnd {
			a, b := sets[0].Metrics[d.Name].Value, sets[1].Metrics[d.Name].Value
			spread := ratio(math.Abs(a-b), math.Min(math.Abs(a), math.Abs(b)))
			verdict := ""
			switch {
			case d.Exact && a != b:
				verdict = "  MUST REPEAT EXACTLY"
				code = 1
			case spread > d.Bound:
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("  %-26s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", d.Name, a, b, 100*spread, 100*d.Bound, verdict)
		}
		if sets[0].Failed+sets[1].Failed > 0 {
			fmt.Printf("  failed ops: %d and %d\n", sets[0].Failed, sets[1].Failed)
			code = 1
		}
	}
	return code
}
