// Command pressc compresses and decompresses trajectories with PRESS.
//
// Subcommands:
//
//	compress   -net network.txt -gps gps.txt -train trips.txt -out dir
//	           [-tsnd m] [-nstd s] [-theta k]
//	           map-matches every GPS trajectory, compresses it, writes one
//	           .press blob per trajectory plus a summary
//	decompress -net network.txt -train trips.txt -in dir [-theta k]
//	           recovers edge paths and temporal sequences from .press blobs
//	stats      -net network.txt -gps gps.txt -train trips.txt
//	           [-tsnd m] [-nstd s] prints storage accounting only
//
// The FST codebook is deterministic given (-train, -theta), so compress and
// decompress only need to share those inputs — mirroring the paper's static
// auxiliary structures.
//
// Shortest paths come from an early-stopped search over the network whose
// answers are bit-identical to the paper's all-pairs table; it needs no
// preprocessing, so every invocation starts from its input files alone.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"press"
	"press/internal/roadnet"
	"press/internal/traj"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "compress":
		cmdCompress(os.Args[2:])
	case "decompress":
		cmdDecompress(os.Args[2:])
	case "stats":
		cmdStats(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pressc {compress|decompress|stats} [flags]")
	os.Exit(2)
}

type common struct {
	net, gps, train string
	theta           int
	tsnd, nstd      float64
}

func commonFlags(fs *flag.FlagSet) *common {
	c := &common{}
	fs.StringVar(&c.net, "net", "data/network.txt", "road network file")
	fs.StringVar(&c.gps, "gps", "data/gps.txt", "raw GPS file")
	fs.StringVar(&c.train, "train", "data/trips.txt", "training paths file")
	fs.IntVar(&c.theta, "theta", 3, "max mined sub-trajectory length")
	fs.Float64Var(&c.tsnd, "tsnd", 0, "TSND bound (m)")
	fs.Float64Var(&c.nstd, "nstd", 0, "NSTD bound (s)")
	return c
}

func buildSystem(c *common) (*press.System, *roadnet.Graph) {
	g := loadNet(c.net)
	training := loadPaths(c.train)
	cfg := press.DefaultConfig()
	cfg.Theta = c.theta
	cfg.TSND, cfg.NSTD = c.tsnd, c.nstd
	sys, err := press.NewSystem(g, training, cfg)
	if err != nil {
		fatal(err)
	}
	return sys, g
}

func cmdCompress(args []string) {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	c := commonFlags(fs)
	out := fs.String("out", "compressed", "output directory")
	fs.Parse(args)

	sys, _ := buildSystem(c)
	raws := loadRaw(c.gps)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	var rawBytes, compBytes, failed int
	for i, raw := range raws {
		ct, err := sys.CompressGPS(raw)
		if err != nil {
			failed++
			continue
		}
		blob := press.Marshal(ct)
		name := filepath.Join(*out, fmt.Sprintf("%06d.press", i))
		if err := os.WriteFile(name, blob, 0o644); err != nil {
			fatal(err)
		}
		rawBytes += raw.SizeBytes()
		compBytes += len(blob)
	}
	fmt.Printf("compressed %d/%d trajectories: %d -> %d bytes (ratio %.2f), tsnd=%gm nstd=%gs\n",
		len(raws)-failed, len(raws), rawBytes, compBytes,
		float64(rawBytes)/float64(max(compBytes, 1)), c.tsnd, c.nstd)
}

func cmdDecompress(args []string) {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	c := commonFlags(fs)
	in := fs.String("in", "compressed", "input directory of .press blobs")
	fs.Parse(args)

	sys, g := buildSystem(c)
	entries, err := os.ReadDir(*in)
	if err != nil {
		fatal(err)
	}
	var names []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".press" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var edges, tuples int
	for _, name := range names {
		blob, err := os.ReadFile(filepath.Join(*in, name))
		if err != nil {
			fatal(err)
		}
		ct, err := press.Unmarshal(blob)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		tr, err := sys.Decompress(ct)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		edges += len(tr.Path)
		tuples += len(tr.Temporal)
	}
	fmt.Printf("decompressed %d trajectories over %d-edge network: %d edges, %d temporal tuples\n",
		len(names), g.NumEdges(), edges, tuples)
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	c := commonFlags(fs)
	fs.Parse(args)

	sys, g := buildSystem(c)
	raws := loadRaw(c.gps)
	var rawBytes, pathBytes, compBytes, samples, edges int
	for _, raw := range raws {
		tr, err := sys.MatchGPS(raw)
		if err != nil {
			continue
		}
		ct, err := sys.Compress(tr)
		if err != nil {
			continue
		}
		rawBytes += raw.SizeBytes()
		pathBytes += tr.SizeBytes()
		compBytes += ct.SizeBytes()
		samples += len(raw)
		edges += len(tr.Path)
	}
	fmt.Printf("network: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	fmt.Printf("fleet:   %d trajectories, %d samples, %d matched edges\n", len(raws), samples, edges)
	fmt.Printf("raw (x,y,t):        %10d bytes\n", rawBytes)
	fmt.Printf("reformatted:        %10d bytes\n", pathBytes)
	fmt.Printf("PRESS compressed:   %10d bytes  (ratio %.2f, tsnd=%gm nstd=%gs)\n",
		compBytes, float64(rawBytes)/float64(max(compBytes, 1)), c.tsnd, c.nstd)
}

func loadNet(path string) *roadnet.Graph {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	g, err := roadnet.Read(f)
	if err != nil {
		fatal(err)
	}
	return g
}

func loadRaw(path string) []traj.Raw {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	raws, err := traj.ReadRaw(f)
	if err != nil {
		fatal(err)
	}
	return raws
}

func loadPaths(path string) []traj.Path {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	paths, err := traj.ReadPaths(f)
	if err != nil {
		fatal(err)
	}
	return paths
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pressc:", err)
	os.Exit(1)
}
