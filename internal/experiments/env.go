// Package experiments contains one runner per table/figure of PRESS §6.
// Each runner returns a Figure (named series over an x-axis) that
// cmd/pressbench prints; bench_test.go at the repository root times the
// same code paths as testing.B benchmarks. EXPERIMENTS.md records the
// paper-reported numbers next to the measured ones.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"press/internal/core"
	"press/internal/gen"
	"press/internal/spindex"
	"press/internal/traj"
)

// Env is the shared experimental environment: the synthetic city, the
// generated fleet, the shortest-path table and an FST codebook trained on
// the "first day" (first half) of the fleet, mirroring the paper's use of
// one day of trajectories as the training set.
type Env struct {
	DS        *gen.Dataset
	Tab       *spindex.Table
	CB        *core.Codebook
	Theta     int
	Corpus    []traj.Path // SP-compressed training trajectories
	MeanSpeed float64     // fleet mean speed (m/s), used to map TSED to NSTD
}

// NewEnv generates the standard environment with n trips. Deterministic for
// a given n.
func NewEnv(n int) (*Env, error) {
	return NewEnvOptions(n, 3, gen.Default(n))
}

// NewEnvOptions generates an environment with explicit options.
func NewEnvOptions(n, theta int, opt gen.Options) (*Env, error) {
	ds, err := gen.Generate(opt)
	if err != nil {
		return nil, err
	}
	tab := spindex.NewTable(ds.Graph)
	env := &Env{DS: ds, Tab: tab, Theta: theta, MeanSpeed: opt.GPS.SpeedMean}
	// Training set: the first half of the fleet ("one day").
	half := len(ds.Trips) / 2
	if half == 0 {
		half = len(ds.Trips)
	}
	for _, p := range ds.Trips[:half] {
		env.Corpus = append(env.Corpus, core.SPCompress(tab, p))
	}
	cb, err := core.Train(env.Corpus, core.TrainOptions{NumEdges: ds.Graph.NumEdges(), Theta: theta})
	if err != nil {
		return nil, err
	}
	env.CB = cb
	return env, nil
}

// Compressor returns a PRESS compressor at the given temporal bounds.
func (e *Env) Compressor(tau, eta float64) (*core.Compressor, error) {
	return core.NewCompressor(e.DS.Graph, e.Tab, e.CB, tau, eta)
}

// RetrainTheta builds a codebook with a different θ over the same corpus.
func (e *Env) RetrainTheta(theta int) (*core.Codebook, error) {
	return core.Train(e.Corpus, core.TrainOptions{NumEdges: e.DS.Graph.NumEdges(), Theta: theta})
}

// RawBytesTotal is the raw (x, y, t) storage of the whole fleet.
func (e *Env) RawBytesTotal() int { return e.DS.RawSizeBytes() }

// QueryRand returns a deterministic rng for query workloads.
func QueryRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Series is one named line of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a printable reproduction of one paper figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Format renders the figure as an aligned text table: one row per x value,
// one column per series.
func (f *Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%16s", s.Name)
	}
	b.WriteByte('\n')
	if len(f.Series) > 0 {
		for i := range f.Series[0].X {
			fmt.Fprintf(&b, "%-14.6g", f.Series[0].X[i])
			for _, s := range f.Series {
				if i < len(s.Y) {
					fmt.Fprintf(&b, "%16.4g", s.Y[i])
				} else {
					fmt.Fprintf(&b, "%16s", "-")
				}
			}
			b.WriteByte('\n')
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// ratio guards against zero denominators in size ratios.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
