package trstree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// liveSource is a DataSource over a live-tuple model keyed by id; the
// differential test keeps it equal to the tuples the tree indexes, so a
// reorganization rescans exactly the model.
type liveSource struct {
	mu   sync.Mutex
	rows map[uint64]Pair
}

func (s *liveSource) ScanMRange(lo, hi float64, fn func(m, n float64, id uint64) bool) error {
	s.mu.Lock()
	snap := make([]Pair, 0, len(s.rows))
	for _, p := range s.rows {
		if p.M >= lo && p.M <= hi {
			snap = append(snap, p)
		}
	}
	s.mu.Unlock()
	for _, p := range snap {
		if !fn(p.M, p.N, p.ID) {
			return nil
		}
	}
	return nil
}

func (s *liveSource) set(p Pair) {
	s.mu.Lock()
	s.rows[p.ID] = p
	s.mu.Unlock()
}

func (s *liveSource) remove(id uint64) {
	s.mu.Lock()
	delete(s.rows, id)
	s.mu.Unlock()
}

// leaves returns every leaf of the tree in key order.
func leaves(n *node, out []*node) []*node {
	if n.isLeaf() {
		return append(out, n)
	}
	for _, c := range n.children {
		out = leaves(c, out)
	}
	return out
}

// checkBuffersSorted asserts every leaf buffer is strictly increasing in
// (m, id): sorted, with no duplicate entry.
func checkBuffersSorted(t *testing.T, tr *Tree) {
	t.Helper()
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	for _, l := range leaves(tr.root, nil) {
		for i := 1; i < len(l.outliers); i++ {
			if compareOutlier(l.outliers[i-1], l.outliers[i]) >= 0 {
				t.Fatalf("leaf [%v,%v] buffer out of order at %d: %+v then %+v",
					l.lo, l.hi, i, l.outliers[i-1], l.outliers[i])
			}
		}
	}
}

// scanLookupIDs is the brute-force reference for Lookup's exact-id half:
// a linear pass over every leaf buffer overlapping the predicate, plus
// the parked side-buffer inserts.
func scanLookupIDs(tr *Tree, lo, hi float64) []uint64 {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	var ids []uint64
	if lo > hi {
		return ids
	}
	for _, l := range leaves(tr.root, nil) {
		olo := math.Max(lo, l.effectiveLo())
		ohi := math.Min(hi, l.effectiveHi())
		for _, e := range l.outliers {
			if e.m >= olo && e.m <= ohi {
				ids = append(ids, e.id)
			}
		}
	}
	for _, op := range tr.sideBuf {
		if !op.del && op.p.M >= lo && op.p.M <= hi {
			ids = append(ids, op.p.ID)
		}
	}
	return ids
}

// checkLookup compares Lookup's ids against the brute-force scan and its
// full answer against the live model: no false negatives.
func checkLookup(t *testing.T, tr *Tree, src *liveSource, lo, hi float64) {
	t.Helper()
	res := tr.Lookup(lo, hi)
	got := slices.Clone(res.IDs)
	want := scanLookupIDs(tr, lo, hi)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("Lookup(%v, %v) ids %v, brute-force scan %v", lo, hi, got, want)
	}
	found := make(map[uint64]bool, len(got))
	for _, id := range got {
		found[id] = true
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	for _, p := range src.rows {
		if p.M < lo || p.M > hi || found[p.ID] {
			continue
		}
		covered := false
		for _, r := range res.Ranges {
			covered = covered || r.Contains(p.N)
		}
		if !covered {
			t.Fatalf("Lookup(%v, %v) misses live tuple %+v (ranges %v)", lo, hi, p, res.Ranges)
		}
	}
}

// checkOutlierSet asserts the union of the leaf buffers is exactly the
// brute-force outlier set: every live tuple its leaf's model fails to
// cover, and nothing else. Call it only with no reorganization in flight.
func checkOutlierSet(t *testing.T, tr *Tree, src *liveSource) {
	t.Helper()
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	var want []outlierEntry
	src.mu.Lock()
	for _, p := range src.rows {
		leaf := tr.traverse(p.M)
		covered := p.M >= leaf.lo && p.M <= leaf.hi &&
			math.Abs(p.N-leaf.model.Predict(p.M)) <= leaf.eps
		if !covered {
			want = append(want, outlierEntry{m: p.M, id: p.ID})
		}
	}
	src.mu.Unlock()
	var got []outlierEntry
	for _, l := range leaves(tr.root, nil) {
		got = append(got, l.outliers...)
	}
	slices.SortFunc(want, compareOutlier)
	slices.SortFunc(got, compareOutlier)
	if !slices.Equal(got, want) {
		t.Fatalf("outlier buffers hold %d entries, brute-force model %d", len(got), len(want))
	}
}

// TestOutlierBuffersDifferential runs random interleaved Insert, Delete,
// Update and Lookup against a brute-force model. m values repeat (so the
// id tie-break orders equal keys), some fall outside the build range
// (edge leaves), and predicates include ±Inf. Midway through, a
// reorganization is parked in its scan so lookups run against a live
// side buffer.
func TestOutlierBuffersDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runOutlierDifferential(t, seed)
		})
	}
}

func runOutlierDifferential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const span = 1000.0
	params := DefaultParams()
	params.SampleRate = 0
	params.MinLeafPairs = 16
	src := &liveSource{rows: make(map[uint64]Pair)}
	var build []Pair
	for i, p := range genLinear(3000, span, 0.05, seed) {
		p.M = math.Round(p.M) // ~3 tuples per distinct m
		if i%2 == 0 {
			p.N = 2*p.M + 100 // keep the line well populated after rounding
		}
		build = append(build, p)
		src.set(p)
	}
	tr := mustBuild(t, build, params)
	nextID := uint64(len(build))
	live := make([]uint64, len(build)) // live ids, for a reproducible pick
	for i := range live {
		live[i] = uint64(i)
	}

	randM := func() float64 {
		switch r := rng.Float64(); {
		case r < 0.05:
			return -1 - rng.Float64()*200 // left of the build range
		case r < 0.10:
			return span + 1 + rng.Float64()*200 // right of it
		case r < 0.60:
			return math.Round(rng.Float64() * span)
		default:
			return rng.Float64() * span
		}
	}
	randN := func(m float64) float64 {
		if rng.Float64() < 0.5 {
			return 2*m + 100
		}
		return rng.Float64() * 1e5
	}
	// pick returns a random live tuple and its slot in live.
	pick := func() (Pair, int, bool) {
		if len(live) == 0 {
			return Pair{}, 0, false
		}
		k := rng.Intn(len(live))
		src.mu.Lock()
		defer src.mu.Unlock()
		return src.rows[live[k]], k, true
	}
	randPredicate := func() (float64, float64) {
		lo := randM()
		hi := lo + rng.Float64()*50
		switch rng.Intn(10) {
		case 0:
			lo = math.Inf(-1)
		case 1:
			hi = math.Inf(1)
		case 2:
			lo, hi = math.Inf(-1), math.Inf(1)
		case 3:
			hi = lo // point query
		}
		return lo, hi
	}
	step := func() {
		switch r := rng.Intn(10); {
		case r < 4:
			p := Pair{M: randM(), ID: nextID}
			p.N = randN(p.M)
			nextID++
			src.set(p)
			live = append(live, p.ID)
			tr.Insert(p.M, p.N, p.ID)
		case r < 6:
			if p, k, ok := pick(); ok {
				src.remove(p.ID)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				tr.Delete(p.M, p.N, p.ID)
			}
		case r < 8:
			if p, _, ok := pick(); ok {
				newN := randN(p.M)
				src.set(Pair{M: p.M, N: newN, ID: p.ID})
				tr.Update(p.M, p.N, newN, p.ID)
			}
		default:
			lo, hi := randPredicate()
			checkLookup(t, tr, src, lo, hi)
		}
	}

	for i := 0; i < 1500; i++ {
		step()
		checkBuffersSorted(t, tr)
		if i%50 == 0 {
			checkOutlierSet(t, tr, src)
		}
	}
	if _, err := tr.ReorgOnce(src); err != nil {
		t.Fatal(err)
	}
	checkBuffersSorted(t, tr)
	checkOutlierSet(t, tr, src)

	// Park a reorganization in its scan: writes divert to the side
	// buffer, and lookups must still match the brute-force reference.
	// The scan snapshots src only after release, so the rebuild also sees
	// the parked writes; replaying them again must be absorbed by
	// addOutlier's dedup and the idempotent delete.
	blk := &blockingSource{inner: src, started: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- tr.ReorgSubtree(0, blk) }()
	<-blk.started
	for i := 0; i < 300; i++ {
		step()
		if i%10 == 0 {
			lo, hi := randPredicate()
			checkLookup(t, tr, src, lo, hi)
		}
	}
	close(blk.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkBuffersSorted(t, tr)
	checkOutlierSet(t, tr, src)
	for i := 0; i < 500; i++ {
		step()
		checkBuffersSorted(t, tr)
	}
	checkOutlierSet(t, tr, src)
}

// TestOutlierNaNTarget pins NaN handling. A NaN target routes to the
// left edge leaf and is always an outlier. Its buffer entry is
// deduplicated and removed like any other: a row inserted and deleted
// must leave no entry behind, or the buffer leaks. No predicate matches
// NaN, so lookups never return it, not even over (-Inf, +Inf).
func TestOutlierNaNTarget(t *testing.T) {
	tr := mustBuild(t, genLinear(2000, 1000, 0, 3), DefaultParams())
	base := tr.OutlierCount()
	nan := math.NaN()
	tr.Insert(nan, 5, 42)
	tr.Insert(nan, 5, 42) // reorg replay may repeat an insert
	tr.Insert(nan, 7, 43)
	if got := tr.OutlierCount() - base; got != 2 {
		t.Fatalf("NaN inserts buffered %d entries, want 2", got)
	}
	checkBuffersSorted(t, tr)
	for _, id := range tr.Lookup(math.Inf(-1), math.Inf(1)).IDs {
		if id == 42 || id == 43 {
			t.Fatalf("unbounded lookup returned NaN-target id %d", id)
		}
	}
	if res := tr.Lookup(nan, nan); len(res.IDs) != 0 || len(res.Ranges) != 0 {
		t.Fatalf("NaN predicate matched %+v", res)
	}
	tr.Delete(nan, 5, 42)
	tr.Delete(nan, 7, 43)
	if got := tr.OutlierCount(); got != base {
		t.Fatalf("after deleting the NaN rows %d outliers remain, want %d", got, base)
	}
}

// TestInfiniteTargetsRouteToEdges: ±Inf targets land in the matching edge
// leaf, so a predicate reaching that infinity finds them.
func TestInfiniteTargetsRouteToEdges(t *testing.T) {
	tr := mustBuild(t, genLinear(4000, 1000, 0.2, 5), DefaultParams())
	if tr.LeafCount() < 2 {
		t.Fatal("want a multi-leaf tree")
	}
	tr.Insert(math.Inf(1), 1, 7001)
	tr.Insert(math.Inf(-1), 1, 7002)
	has := func(res Result, id uint64) bool { return slices.Contains(res.IDs, id) }
	if !has(tr.Lookup(999, math.Inf(1)), 7001) {
		t.Fatal("+Inf target not found by a predicate reaching +Inf")
	}
	if !has(tr.Lookup(math.Inf(-1), 1), 7002) {
		t.Fatal("-Inf target not found by a predicate reaching -Inf")
	}
	if has(tr.Lookup(0, 1000), 7001) || has(tr.Lookup(0, 1000), 7002) {
		t.Fatal("finite predicate returned an infinite target")
	}
	tr.Delete(math.Inf(1), 1, 7001)
	tr.Delete(math.Inf(-1), 1, 7002)
	if has(tr.Lookup(math.Inf(-1), math.Inf(1)), 7001) || has(tr.Lookup(math.Inf(-1), math.Inf(1)), 7002) {
		t.Fatal("deleted infinite targets still returned")
	}
}

// BenchmarkLookupOutlierHeavy times a narrow lookup (about one matching
// outlier) on a one-leaf tree whose buffer grows from 10^3 to 10^5
// entries. With sorted buffers ns/op stays nearly flat; a linear buffer
// scan would grow 100x across the sub-benchmarks.
func BenchmarkLookupOutlierHeavy(b *testing.B) {
	const span = 1000.0
	for _, size := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("outliers=%d", size), func(b *testing.B) {
			params := DefaultParams()
			params.MaxHeight = 1
			tr, err := Build(genLinear(1000, span, 0, 1), 0, span, params)
			if err != nil {
				b.Fatal(err)
			}
			// Ascending m appends at the buffer's end, so the set-up is
			// linear rather than one memmove per insert.
			for i := 0; i < size; i++ {
				m := span * float64(i) / float64(size)
				tr.Insert(m, 1e9, uint64(i))
			}
			if got := tr.OutlierCount(); got != size {
				b.Fatalf("buffer holds %d outliers, want %d", got, size)
			}
			width := span / float64(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := span * float64(i%size) / float64(size)
				tr.Lookup(lo, lo+width/2)
			}
		})
	}
}
