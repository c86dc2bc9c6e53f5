package press

import (
	"bytes"
	"testing"

	"press/internal/spindex"
)

// spFixture builds a dataset plus two equally trained systems over it: ref,
// the reference over the paper's all-pairs Table (assembled directly, since
// no exported constructor serves a Table), and sys, NewSystem's search.
func spFixture(t *testing.T) (ds *Dataset, ref, sys *System) {
	t.Helper()
	opt := DefaultDatasetOptions(20)
	opt.City.Rows, opt.City.Cols = 6, 6
	ds, err := GenerateDataset(opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TSND, cfg.NSTD = 50, 30
	training := ds.Trips[:10]
	if ref, err = assembleSystem(ds.Graph, spindex.NewTable(ds.Graph), training, cfg); err != nil {
		t.Fatal(err)
	}
	if sys, err = NewSystem(ds.Graph, training, cfg); err != nil {
		t.Fatal(err)
	}
	return ds, ref, sys
}

// assertSameAnswers is the facade-level oracle: over every raw trajectory
// of ds, got must compress to exactly ref's bytes, and whereat, whenat,
// range and mindistance must return exactly ref's answers — not merely
// answers within the bounds. It returns the compressed fleet.
func assertSameAnswers(t *testing.T, ds *Dataset, ref, got *System) []*Compressed {
	t.Helper()
	var fleet []*Compressed
	for i, raw := range ds.Raws {
		ctR, errR := ref.CompressGPS(raw)
		ctG, errG := got.CompressGPS(raw)
		if (errR == nil) != (errG == nil) {
			t.Fatalf("raw %d: error mismatch: reference %v, got %v", i, errR, errG)
		}
		if errR != nil {
			continue
		}
		if !bytes.Equal(ctR.Marshal(), ctG.Marshal()) {
			t.Fatalf("raw %d: compression bytes differ from the reference", i)
		}
		fleet = append(fleet, ctR)
		back, err := got.Decompress(ctG)
		if err != nil {
			t.Fatal(err)
		}
		if len(back.Path) == 0 {
			t.Fatalf("raw %d: empty decompressed path", i)
		}
	}
	if len(fleet) < 2 {
		t.Fatalf("only %d compressible trajectories", len(fleet))
	}

	region := NewMBR(Point{X: 100, Y: 100}, Point{X: 900, Y: 900})
	for i, ct := range fleet {
		mid := (ct.Temporal[0].T + ct.Temporal[len(ct.Temporal)-1].T) / 2
		pr, errR := ref.WhereAt(ct, mid)
		pg, errG := got.WhereAt(ct, mid)
		if (errR == nil) != (errG == nil) || pr != pg {
			t.Fatalf("ct %d: WhereAt diverges: (%v,%v) vs (%v,%v)", i, pr, errR, pg, errG)
		}
		if errR == nil {
			tr, errR := ref.WhenAt(ct, pr)
			tg, errG := got.WhenAt(ct, pg)
			if (errR == nil) != (errG == nil) || tr != tg {
				t.Fatalf("ct %d: WhenAt diverges: %v vs %v", i, tr, tg)
			}
		}
		rr, errR := ref.Range(ct, ct.Temporal[0].T, mid, region)
		rg, errG := got.Range(ct, ct.Temporal[0].T, mid, region)
		if (errR == nil) != (errG == nil) || rr != rg {
			t.Fatalf("ct %d: Range diverges: %v vs %v", i, rr, rg)
		}
	}
	for i := 1; i < len(fleet); i++ {
		dr, errR := ref.MinDistance(fleet[i-1], fleet[i])
		dg, errG := got.MinDistance(fleet[i-1], fleet[i])
		if (errR == nil) != (errG == nil) || dr != dg {
			t.Fatalf("MinDistance(%d,%d) diverges: %v vs %v", i-1, i, dr, dg)
		}
	}
	return fleet
}

// TestHierSystemEquivalence is the facade-level acceptance property for the
// served SP source: compression output is byte-identical and query answers
// are identical to a system over the all-pairs table — the O(|E|²) table is
// not part of the answer contract.
func TestHierSystemEquivalence(t *testing.T) {
	ds, ref, sys := spFixture(t)
	if got := sys.SPStats(); got.Kind != "hier" || got.HeapBytes <= 0 {
		t.Fatalf("NewSystem stats = %+v; want kind hier with its search scratch", got)
	}
	assertSameAnswers(t, ds, ref, sys)
}
