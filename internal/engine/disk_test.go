package engine

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hermit/internal/hermit"
	"hermit/internal/pager"
	"hermit/internal/trstree"
)

// newDiskFixture loads a sensor-like table: col0 timestamp (pk), col1
// average reading (host), col2 sensor reading (target, nonlinear in avg).
func newDiskFixture(t testing.TB, n, poolPages int, seed int64) *DiskTable {
	t.Helper()
	dt, err := OpenDiskTable(t.TempDir(), []string{"ts", "avg", "s0"}, 0, poolPages)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dt.Close() })
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		avg := rng.Float64() * 100
		s0 := 5 * math.Sqrt(avg) * avg / 10
		if rng.Float64() < 0.01 { // sparse sensor glitches -> outliers
			s0 = rng.Float64() * 500
		}
		if _, err := dt.Insert([]float64{float64(i), avg, s0}); err != nil {
			t.Fatal(err)
		}
	}
	return dt
}

func diskExpected(t *testing.T, dt *DiskTable, col int, lo, hi float64) []pager.HeapRID {
	t.Helper()
	var out []pager.HeapRID
	err := dt.heap.Scan(func(rid pager.HeapRID, row []float64) bool {
		if row[col] >= lo && row[col] <= hi {
			out = append(out, rid)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameHeapRIDs(a, b []pager.HeapRID) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]pager.HeapRID(nil), a...)
	bs := append([]pager.HeapRID(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestDiskTableValidation(t *testing.T) {
	if _, err := OpenDiskTable(t.TempDir(), []string{"a"}, 5, 8); err != ErrNoSuchColumn {
		t.Fatalf("want ErrNoSuchColumn, got %v", err)
	}
	dt := newDiskFixture(t, 100, 8, 1)
	if _, err := dt.CreateDiskBTreeIndex(9); err != ErrNoSuchColumn {
		t.Fatal(err)
	}
	if _, err := dt.CreateDiskHermitIndex(2, 1, trstree.DefaultParams()); err != ErrNoHostIndex {
		t.Fatal(err)
	}
	if _, err := dt.CreateDiskHermitIndex(9, 1, trstree.DefaultParams()); err != ErrNoSuchColumn {
		t.Fatal(err)
	}
	if dt.String() == "" || dt.Len() != 100 {
		t.Fatal("accessors")
	}
}

func TestDiskHermitVsBaseline(t *testing.T) {
	dtH := newDiskFixture(t, 20000, 64, 2)
	dtB := newDiskFixture(t, 20000, 64, 2)
	if _, err := dtH.CreateDiskBTreeIndex(1); err != nil { // host
		t.Fatal(err)
	}
	if _, err := dtH.CreateDiskHermitIndex(2, 1, trstree.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if _, err := dtB.CreateDiskBTreeIndex(2); err != nil { // baseline complete index
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		lo := rng.Float64() * 400
		hi := lo + rng.Float64()*50
		rh, sh, err := dtH.RangeQuery(2, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		rb, sb, err := dtB.RangeQuery(2, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		want := diskExpected(t, dtH, 2, lo, hi)
		if !sameHeapRIDs(rh, want) {
			t.Fatalf("disk hermit wrong for [%v,%v]: got %d want %d", lo, hi, len(rh), len(want))
		}
		if !sameHeapRIDs(rb, want) {
			t.Fatalf("disk baseline wrong for [%v,%v]", lo, hi)
		}
		if sh.Kind != KindHermit || sb.Kind != KindBTree {
			t.Fatal("kinds")
		}
	}
}

func TestDiskProfileAndStats(t *testing.T) {
	dt := newDiskFixture(t, 10000, 32, 4)
	if _, err := dt.CreateDiskBTreeIndex(1); err != nil {
		t.Fatal(err)
	}
	hx, err := dt.CreateDiskHermitIndex(2, 1, trstree.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if hx.Tree() == nil {
		t.Fatal("Tree nil")
	}
	dt.SetProfile(true)
	dt.Pool().ResetStats()
	_, st, err := dt.RangeQuery(2, 10, 60)
	if err != nil {
		t.Fatal(err)
	}
	if st.Breakdown[hermit.PhaseHostIndex] == 0 || st.Breakdown[hermit.PhaseBaseTable] == 0 {
		t.Fatalf("breakdown=%v", st.Breakdown)
	}
	ps := dt.Pool().Stats()
	if ps.Hits+ps.Misses == 0 {
		t.Fatal("no pool traffic recorded")
	}
	heapB, idxB, trsB := dt.DiskMemory()
	if heapB == 0 || idxB == 0 || trsB == 0 {
		t.Fatalf("memory: %d %d %d", heapB, idxB, trsB)
	}
	// TRS-Tree is tiny compared to the disk index (the §7.8 argument for
	// saving SSD budget).
	if trsB*4 > idxB {
		t.Fatalf("trs=%d not ≪ disk index=%d", trsB, idxB)
	}
}

func TestDiskUnindexedScanFallback(t *testing.T) {
	dt := newDiskFixture(t, 2000, 16, 5)
	rids, st, err := dt.RangeQuery(2, 10, 20)
	if err != nil || st.Kind != KindNone {
		t.Fatalf("kind=%v err=%v", st.Kind, err)
	}
	if !sameHeapRIDs(rids, diskExpected(t, dt, 2, 10, 20)) {
		t.Fatal("scan fallback wrong")
	}
	if _, _, err := dt.RangeQuery(9, 0, 1); err != ErrNoSuchColumn {
		t.Fatal(err)
	}
}

func TestDiskInsertMaintainsIndexes(t *testing.T) {
	dt := newDiskFixture(t, 5000, 32, 6)
	if _, err := dt.CreateDiskBTreeIndex(1); err != nil {
		t.Fatal(err)
	}
	if _, err := dt.CreateDiskHermitIndex(2, 1, trstree.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	row := []float64{99999, 55, 123.456}
	if _, err := dt.Insert(row); err != nil {
		t.Fatal(err)
	}
	rids, _, err := dt.RangeQuery(2, 123.456, 123.456)
	if err != nil {
		t.Fatal(err)
	}
	if !sameHeapRIDs(rids, diskExpected(t, dt, 2, 123.456, 123.456)) {
		t.Fatal("inserted row not found through disk hermit")
	}
}

func TestDiskTinyPoolStillCorrect(t *testing.T) {
	// Squeeze everything through 4 frames: heavy eviction, same answers.
	dt := newDiskFixture(t, 5000, 4, 7)
	if _, err := dt.CreateDiskBTreeIndex(1); err != nil {
		t.Fatal(err)
	}
	if _, err := dt.CreateDiskHermitIndex(2, 1, trstree.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	rids, _, err := dt.RangeQuery(2, 50, 150)
	if err != nil {
		t.Fatal(err)
	}
	if !sameHeapRIDs(rids, diskExpected(t, dt, 2, 50, 150)) {
		t.Fatal("tiny pool results wrong")
	}
	if dt.Pool().Stats().Evictions == 0 {
		t.Fatal("expected evictions with 4-frame pool")
	}
}

// TestDiskNaNKeys: NaN values in indexed columns sort first on disk, as
// they do in memory, so no range — B+-tree, Hermit or heap scan — returns
// a NaN row, and a NaN or inverted bound matches nothing without
// touching an index.
func TestDiskNaNKeys(t *testing.T) {
	dt, err := OpenDiskTable(t.TempDir(), []string{"pk", "host", "target"}, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		host := rng.Float64() * 1000
		target := (host - 100) / 2
		if rng.Float64() < 0.02 {
			host = math.NaN()
		}
		if rng.Float64() < 0.02 {
			target = math.NaN()
		}
		if _, err := dt.Insert([]float64{float64(i), host, target}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dt.CreateDiskBTreeIndex(1); err != nil {
		t.Fatal(err)
	}
	if _, err := dt.CreateDiskHermitIndex(2, 1, trstree.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		col    int
		lo, hi float64
	}{
		{1, 0, 1e9}, {1, math.Inf(-1), math.Inf(1)}, {1, 200, 300},
		{2, -1e9, 1e9}, {2, math.Inf(-1), math.Inf(1)}, {2, 10, 60},
	} {
		want := diskExpected(t, dt, q.col, q.lo, q.hi)
		got, _, err := dt.RangeQuery(q.col, q.lo, q.hi)
		if err != nil {
			t.Fatal(err)
		}
		if !sameHeapRIDs(got, want) {
			t.Fatalf("col %d [%g, %g]: got %d rows, want %d", q.col, q.lo, q.hi, len(got), len(want))
		}
	}
	for _, col := range []int{1, 2} {
		for _, b := range [][2]float64{{math.NaN(), 1e9}, {0, math.NaN()}, {5, 4}} {
			got, st, err := dt.RangeQuery(col, b[0], b[1])
			if err != nil || len(got) != 0 || st.Candidates != 0 {
				t.Fatalf("col %d [%g, %g]: %d rows, %d candidates, err %v; want none",
					col, b[0], b[1], len(got), st.Candidates, err)
			}
		}
	}

	// A Hermit index over a column holding only NaN still builds.
	nt, err := OpenDiskTable(t.TempDir(), []string{"pk", "host", "target"}, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()
	for i := 0; i < 50; i++ {
		if _, err := nt.Insert([]float64{float64(i), float64(i), math.NaN()}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nt.CreateDiskBTreeIndex(1); err != nil {
		t.Fatal(err)
	}
	if _, err := nt.CreateDiskHermitIndex(2, 1, trstree.DefaultParams()); err != nil {
		t.Fatalf("hermit over an all-NaN column: %v", err)
	}
	if got, _, err := nt.RangeQuery(2, math.Inf(-1), math.Inf(1)); err != nil || len(got) != 0 {
		t.Fatalf("all-NaN column: %d rows, err %v; want none", len(got), err)
	}
}
