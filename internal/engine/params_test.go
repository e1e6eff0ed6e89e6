package engine

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hermit/internal/hermit"
	"hermit/internal/trstree"
)

// sigmoidRow is a row of a nonlinear table: y is a sigmoid of x, so a
// TRS-Tree from y to x needs many leaves to cover it.
func sigmoidRow(pk int, rng *rand.Rand) []float64 {
	x := rng.Float64() * 1000
	return []float64{float64(pk), x, 1000 / (1 + math.Exp(-(x-500)/60))}
}

// checkDefaultTree asserts the Hermit index on col 2 was built with the
// paper defaults: the tree carries them, splits the sigmoid into more than
// one leaf, and keeps its outliers within OutlierRatio.
func checkDefaultTree(t *testing.T, tb *Table) {
	t.Helper()
	x := tb.Hermit(2)
	if x == nil {
		t.Fatal("no hermit index on col 2")
	}
	tr := x.Tree()
	def := trstree.DefaultParams()
	if tr.Params() != def {
		t.Fatalf("tree params %+v, want the defaults %+v", tr.Params(), def)
	}
	if tr.LeafCount() <= 1 {
		t.Fatalf("tree has %d leaves, want a split tree", tr.LeafCount())
	}
	if frac := float64(tr.OutlierCount()) / float64(tb.Len()); frac > def.OutlierRatio {
		t.Fatalf("outlier fraction %.3f exceeds OutlierRatio %.3f", frac, def.OutlierRatio)
	}
}

// TestZeroParamsMeanDefaults: a Hermit IndexDef with zero Params is built,
// logged and checkpointed with the paper defaults, and a manifest written
// with zero params (as older versions stored them) rebuilds the index with
// the defaults on reopen.
func TestZeroParamsMeanDefaults(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("s", []string{"pk", "x", "y"}, 0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		if _, err := d.Insert("s", sigmoidRow(i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CreateIndex("s", IndexDef{Kind: "btree", Col: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateIndex("s", IndexDef{Kind: "hermit", Col: 2, Host: 1}); err != nil {
		t.Fatal(err)
	}
	tb, _ := d.Table("s")
	checkDefaultTree(t, tb)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The manifest records the defaults; zero them to stand in for a
	// manifest written before CreateIndex stored real params.
	path := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	defs := m.Tables["s"].Defs
	if len(defs) != 2 || defs[1].Kind != "hermit" || defs[1].Params != trstree.DefaultParams() {
		t.Fatalf("manifest defs %+v, want a hermit def carrying the defaults", defs)
	}
	defs[1].Params = trstree.Params{}
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	tb2, err := d2.Table("s")
	if err != nil {
		t.Fatal(err)
	}
	checkDefaultTree(t, tb2)
}
