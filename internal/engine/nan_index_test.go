package engine

import (
	"math"
	"math/rand"
	"testing"

	"hermit/internal/hermit"
	"hermit/internal/storage"
)

// loadWithNaNHosts inserts n Synthetic-Linear rows (colB = 2*colC + 100)
// of which about 1% carry a NaN colB.
func loadWithNaNHosts(t *testing.T, tb *Table, n int) (nans int) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < n; i++ {
		c := rng.Float64() * 1000
		b := linearFn(c)
		if rng.Float64() < 0.01 {
			b = math.NaN()
			nans++
		}
		if _, err := tb.Insert([]float64{float64(i), b, c, 0}); err != nil {
			t.Fatal(err)
		}
	}
	return nans
}

// TestHermitRangeFindsNaNHostRows: a row whose host value is NaN lies in no
// host range, so the TRS-Tree must buffer it as an outlier. The build used
// to keep such rows off the buffer (|NaN - pred| > eps is false), and a
// Hermit range on the target column lost them.
func TestHermitRangeFindsNaNHostRows(t *testing.T) {
	for _, scheme := range []hermit.PointerScheme{hermit.PhysicalPointers, hermit.LogicalPointers} {
		t.Run(scheme.String(), func(t *testing.T) {
			db := NewDB(scheme)
			tb, err := db.CreateTable("t", synthCols, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tb.CreateBTreeIndex(1, false); err != nil {
				t.Fatal(err)
			}
			if loadWithNaNHosts(t, tb, 6000) == 0 {
				t.Fatal("fixture has no NaN host values")
			}
			if _, err := tb.CreateHermitIndex(2, 1); err != nil {
				t.Fatal(err)
			}
			tb.SetRouting(RouteStatic)
			for _, q := range [][2]float64{{0, 1000}, {100, 150}, {999, 1000}} {
				got, st, err := tb.RangeQuery(2, q[0], q[1])
				if err != nil {
					t.Fatal(err)
				}
				if st.Kind != KindHermit {
					t.Fatalf("served by %v, want the Hermit index", st.Kind)
				}
				if want := expected(tb, 2, q[0], q[1]); !sameRIDs(got, want) {
					t.Fatalf("range %v: %d rows, want %d", q, len(got), len(want))
				}
			}
		})
	}
}

// TestBTreeNaNKeys: NaN keys sort before every other key, so a B+-tree
// range never returns them, a bulk load over a column holding NaN
// succeeds, and a NaN or inverted predicate matches nothing.
func TestBTreeNaNKeys(t *testing.T) {
	db := NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("t", synthCols, 0)
	if err != nil {
		t.Fatal(err)
	}
	// colB's index is maintained row by row; colC's and the composite
	// (colB, colC) index are bulk-loaded over rows that already hold NaN.
	if _, err := tb.CreateBTreeIndex(1, false); err != nil {
		t.Fatal(err)
	}
	loadWithNaNHosts(t, tb, 2000)
	for i := 0; i < 20; i++ {
		if _, err := tb.Insert([]float64{float64(5000 + i), 7, math.NaN(), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.CreateBTreeIndex(2, false); err != nil {
		t.Fatalf("bulk load over NaN keys: %v", err)
	}
	if _, err := tb.CreateCompositeBTreeIndex(1, 2, false); err != nil {
		t.Fatalf("composite bulk load over NaN keys: %v", err)
	}
	tb.SetRouting(RouteStatic)
	for _, c := range []struct {
		col    int
		lo, hi float64
	}{{1, 0, 1e9}, {1, math.Inf(-1), math.Inf(1)}, {2, 0, 1e9}, {2, 100, 200}} {
		got, st, err := tb.RangeQuery(c.col, c.lo, c.hi)
		if err != nil {
			t.Fatal(err)
		}
		if st.Kind != KindBTree {
			t.Fatalf("col %d served by %v, want the B+-tree", c.col, st.Kind)
		}
		if want := expected(tb, c.col, c.lo, c.hi); !sameRIDs(got, want) {
			t.Fatalf("col %d range [%v,%v]: %d rows, want %d", c.col, c.lo, c.hi, len(got), len(want))
		}
	}
	nan := math.NaN()
	for _, q := range [][2]float64{{nan, nan}, {0, nan}, {nan, 1e9}, {10, 5}} {
		for _, col := range []int{0, 1, 2, 3} {
			if got, _, err := tb.RangeQuery(col, q[0], q[1]); err != nil || len(got) != 0 {
				t.Fatalf("col %d range [%v,%v]: %d rows, err %v; want none", col, q[0], q[1], len(got), err)
			}
		}
	}
	got, _, err := tb.RangeQuery2(1, 0, 1e9, 2, 0, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	tb.ScanLive(func(_ storage.RID, row []float64) bool {
		if row[1] >= 0 && row[1] <= 1e9 && row[2] >= 0 && row[2] <= 1e9 {
			want++
		}
		return true
	})
	if len(got) != want {
		t.Fatalf("composite range: %d rows, want %d", len(got), want)
	}
}
