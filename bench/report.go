package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runMeta labels every file the benchmark writes: which run, on what
// machine. Numbers from a 2-core container must say so.
type runMeta struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
}

func newMeta(workload string, seed int64, seconds float64, traced bool) runMeta {
	return runMeta{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		NProc: nproc(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitRev: gitRev(),
	}
}

// gitRev is the checkout's commit, or "unknown" outside a git repository
// (the driver's checkouts are plain directories).
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// result is what one workload run produces. The four exported JSON keys
// are the driver's contract for the last line of standard output; the rest
// goes into the ledger row.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	samples map[string]int     // timed ops per direction
	sizes   map[string]float64 // workload sizes actually used
	notes   []string           // validity remarks (sample floor, generator lateness)
}

func newResult() *result {
	return &result{Metrics: map[string]metric{}, samples: map[string]int{}, sizes: map[string]float64{}}
}

// set records a metric under its declared unit; naming one the tables do
// not list is a bug in the benchmark.
func (r *result) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				r.Metrics[name] = metric{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("bench: metric " + name + " is not declared in config.go")
}

// fill gives every metric of defs that the workload did not set the value
// 0: a layer the workload bypasses.
func (r *result) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Metrics[d.Name] = metric{Value: 0, Unit: d.Unit}
		}
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// failures counts wrong or failed ops and keeps the first few reasons.
type failures struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (f *failures) add(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.first) < 5 {
		f.first = append(f.first, err.Error())
	}
}

// failed returns the first few reasons, for the operator.
func (f *failures) failed() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.first...)
}

func (f *failures) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// ledgerRow is bench/out/BENCH_<workload>.json.
type ledgerRow struct {
	Meta      runMeta            `json:"meta"`
	Config    map[string]any     `json:"config"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	Sizes     map[string]float64 `json:"sizes"`
	Notes     []string           `json:"notes,omitempty"`
}

// fixedConfig is the configuration section of a ledger row.
func fixedConfig() map[string]any {
	return map[string]any{
		"network":              fmt.Sprintf("gen.DefaultCity().Scale(%d)", cityScale),
		"theta":                theta,
		"tsnd_m":               tauMeters,
		"nstd_s":               etaSeconds,
		"sp":                   "spindex.Hier, PRSP v2 snapshot, memory-mapped",
		"store_shards":         storeShards,
		"store_sync":           "SyncNever",
		"incremental_index":    true,
		"query_cache_bytes":    "default (32 MiB)",
		"max_concurrent":       "default (4 x GOMAXPROCS)",
		"router":               "defaults, probing on",
		"client_conns_at_most": nproc(),
	}
}

// outDir is where ledger rows and span files go, next to the sources.
func outDir() string { return filepath.Join("bench", "out") }

func writeLedger(meta runMeta, r *result) error {
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	row := ledgerRow{
		Meta: meta, Config: fixedConfig(), Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: r.Metrics, Samples: r.samples, Sizes: r.sizes, Notes: r.notes,
	}
	b, err := json.MarshalIndent(row, "", "  ")
	if err != nil {
		return err
	}
	name := "BENCH_" + meta.Workload + ".json"
	if meta.Traced {
		name = "BENCH_" + meta.Workload + "_layers.json"
	}
	return os.WriteFile(filepath.Join(outDir(), name), append(b, '\n'), 0o644)
}

// printTable writes the human-readable rows of one run.
func printTable(w io.Writer, meta runMeta, r *result, defs []metricDef) {
	fmt.Fprintf(w, "%s  seed=%d seconds=%g nproc=%d GOMAXPROCS=%d %s rev=%s\n",
		meta.Workload, meta.Seed, meta.Seconds, meta.NProc, meta.GOMAXPROCS, meta.GoVersion, meta.GitRev)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %16s %-9s\n", d.Name, strconv.FormatFloat(r.Metrics[d.Name].Value, 'f', 4, 64), d.Unit)
	}
	if !meta.Traced {
		fmt.Fprintf(w, "  %-34s %16s %-9s (%d failed of %d attempted)\n", "failed_share",
			strconv.FormatFloat(ratio(float64(r.Failed), float64(r.Attempted)), 'f', 6, 64), "ratio", r.Failed, r.Attempted)
		fmt.Fprintf(w, "  samples: write=%d read=%d\n", r.samples["write"], r.samples["read"])
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// peakRSSMiB reads VmHWM, the process's high-water resident set.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
