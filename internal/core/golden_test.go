package core

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"press/internal/gen"
	"press/internal/spindex"
	"press/internal/traj"
)

// TestGoldenCompressorBytes pins what Compressor.Compress writes: the
// SHA-256 of every record's Marshal bytes followed by its summary's 48
// bytes, over a fixed generated fleet compressed on the Hier at two error
// bounds. Any change to Algorithm 1, the FST coding, Algorithm 3 or the
// summary fold moves the digest.
//
// The digest is pinned for amd64 only: elsewhere the compiler may fuse a
// float multiply and add (BTC's slopes, the generator's geometry), which
// can move a retained tuple without any code change.
func TestGoldenCompressorBytes(t *testing.T) {
	const want = "a7684b48ea354ebaa0dfb45a213018fc68febf606b4b57059ae4f8c8f8d63f08"
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden compressor digest is pinned for amd64, not GOARCH=%s", runtime.GOARCH)
	}
	opt := gen.Default(40)
	opt.City.Rows, opt.City.Cols = 8, 8
	ds, err := gen.Generate(opt)
	if err != nil {
		t.Fatal(err)
	}
	sp := spindex.NewHier(ds.Graph)
	corpus := make([]traj.Path, 0, len(ds.Trips))
	for _, p := range ds.Trips {
		corpus = append(corpus, SPCompress(sp, p))
	}
	cb, err := Train(corpus, TrainOptions{NumEdges: ds.Graph.NumEdges(), Theta: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, b := range []struct{ tau, eta float64 }{{0, 0}, {50, 30}} {
		c, err := NewCompressor(ds.Graph, sp, cb, b.tau, b.eta)
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range ds.Truth {
			ct, err := c.Compress(tr)
			if err != nil {
				t.Fatalf("tau=%v eta=%v trajectory %d: %v", b.tau, b.eta, i, err)
			}
			h.Write(recordBytes(ct))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("compressor bytes digest %s, want %s", got, want)
	}
}
