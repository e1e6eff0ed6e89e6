package btree

import (
	"cmp"
	"math"
	"testing"
)

func TestMaxAfterRightmostDeletes(t *testing.T) {
	// Lazy deletion can empty the rightmost leaf; the tree must stay
	// valid.
	tr := New(4)
	for i := 0; i < 100; i++ {
		tr.Insert(float64(i), uint64(i))
	}
	// Empty out the tail of the key space.
	for i := 90; i < 100; i++ {
		if !tr.Delete(float64(i), uint64(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScanWithInfiniteBounds(t *testing.T) {
	tr := New(DefaultOrder)
	for i := 0; i < 50; i++ {
		tr.Insert(float64(i), uint64(i))
	}
	n := 0
	tr.Scan(math.Inf(-1), math.Inf(1), func(float64, uint64) bool { n++; return true })
	if n != 50 {
		t.Fatalf("inf scan saw %d", n)
	}
}

func TestInsertDuplicateEntryTolerated(t *testing.T) {
	tr := New(DefaultOrder)
	tr.Insert(1, 7)
	tr.Insert(1, 7) // documented as permitted
	if tr.Len() != 2 {
		t.Fatalf("len=%d", tr.Len())
	}
	if !tr.Delete(1, 7) || !tr.Delete(1, 7) {
		t.Fatal("deleting both copies failed")
	}
	if tr.Delete(1, 7) {
		t.Fatal("third delete succeeded")
	}
}

// TestNaNKeys: cmp.Compare sorts NaN keys before every other key, so a
// NaN entry has one slot: range scans never return it, a NaN bound
// matches nothing, a bulk load accepts NaN-first input, and the exact
// entry can still be found and deleted. The composite tree likewise.
func TestNaNKeys(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	keys := []float64{nan, -inf, -1, 0, 1, inf}
	for _, a := range keys {
		for _, b := range keys {
			if got, want := cmpKV(a, 0, b, 0), cmp.Compare(a, b); got != want {
				t.Fatalf("cmpKV(%v, %v) = %d, cmp.Compare = %d", a, b, got, want)
			}
		}
	}
	tr := New(4)
	for i := 0; i < 200; i++ {
		k := float64(i)
		if i%10 == 0 {
			k = nan
		}
		tr.Insert(k, uint64(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	n := 0
	tr.Scan(-inf, inf, func(k float64, _ uint64) bool {
		if math.IsNaN(k) {
			t.Fatal("range scan returned a NaN key")
		}
		n++
		return true
	})
	if n != 180 {
		t.Fatalf("range scan saw %d entries, want 180", n)
	}
	for _, b := range [][2]float64{{nan, nan}, {0, nan}, {nan, 200}} {
		tr.Scan(b[0], b[1], func(float64, uint64) bool {
			t.Fatalf("scan [%v,%v] returned an entry", b[0], b[1])
			return false
		})
	}
	if !tr.Contains(nan, 10) || !tr.Delete(nan, 10) || tr.Contains(nan, 10) {
		t.Fatal("exact NaN entry not found or not deleted")
	}
	if err := New(4).BulkLoad([]float64{nan, nan, 1, 2}, []uint64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}

	ct := NewComposite(4)
	want := 0
	for i := 0; i < 200; i++ {
		a, b := float64(i%5), float64(i)
		if i%10 == 0 {
			b = nan
		}
		if i%7 == 0 {
			a = nan
		}
		if !math.IsNaN(a) && !math.IsNaN(b) {
			want++
		}
		ct.Insert(a, b, uint64(i))
	}
	n = 0
	ct.Scan(-inf, inf, -inf, inf, func(a, b float64, _ uint64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			t.Fatal("composite range scan returned a NaN component")
		}
		n++
		return true
	})
	if n != want {
		t.Fatalf("composite range scan saw %d entries, want %d", n, want)
	}
	ct.Scan(0, nan, -inf, inf, func(float64, float64, uint64) bool {
		t.Fatal("composite scan with a NaN bound returned an entry")
		return false
	})
	if !ct.Delete(nan, 7, 7) {
		t.Fatal("exact composite NaN entry not deleted")
	}
}
