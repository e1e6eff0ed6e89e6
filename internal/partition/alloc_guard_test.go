//go:build !race

package partition

import (
	"runtime/debug"
	"testing"

	"hermit/internal/engine"
	"hermit/internal/hermit"
)

// Allocation guard for the one-partition view, the table every plain
// table is served through: its queries must be direct engine calls on the
// caller's goroutine, never the scatter-gather fan-out. The file builds
// without -race because testing.AllocsPerRun counts the race detector's
// own bookkeeping.

// measureAllocs runs fn under AllocsPerRun with GC pinned off so the
// collector cannot recycle pooled scratch mid-measurement.
func measureAllocs(runs int, fn func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn() // warm pools outside the measured window
	return testing.AllocsPerRun(runs, fn)
}

// TestOnePartitionRunsInline pins a one-partition range query at the
// allocs/op of a routed primary-key point query: the same engine path and
// result size, so any extra allocation is fan-out machinery. It also
// checks that the view returns exactly the engine table's RIDs, in the
// engine's order.
func TestOnePartitionRunsInline(t *testing.T) {
	pt, err := New(hermit.PhysicalPointers, "guard", []string{"pk", "val"}, 0, Options{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	pt.SetRouting(engine.RouteStatic)
	for i := 0; i < 4096; i++ {
		if _, err := pt.Insert([]float64{float64(i), float64(i % 97)}); err != nil {
			t.Fatal(err)
		}
	}

	i := 0
	query := func(hi func(k float64) float64) func() {
		return func() {
			i = (i*31 + 17) % 4096
			k := float64(i)
			rids, st, err := pt.RangeQuery(0, k, hi(k))
			if err != nil || len(rids) != 1 || !st.Routed {
				t.Fatalf("range [%v, %v]: %d rows, routed %v, err %v", k, hi(k), len(rids), st.Routed, err)
			}
		}
	}
	routed := measureAllocs(200, query(func(k float64) float64 { return k }))
	direct := measureAllocs(200, query(func(k float64) float64 { return k + 0.5 }))
	if direct > routed {
		t.Fatalf("one-partition range allocates %.2f/op, above the routed path's %.2f/op", direct, routed)
	}

	for _, q := range []struct {
		col    int
		lo, hi float64
	}{{0, 100, 400}, {1, 10, 12}, {1, 96, 96}, {0, -5, -1}} {
		got, _, err := pt.RangeQuery(q.col, q.lo, q.hi)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := pt.Part(0).RangeQuery(q.col, q.lo, q.hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("col %d [%v, %v]: view %d rows, engine %d", q.col, q.lo, q.hi, len(got), len(want))
		}
		for k := range got {
			if got[k] != (RID{Part: 0, RID: want[k]}) {
				t.Fatalf("col %d [%v, %v] row %d: view %v, engine %v", q.col, q.lo, q.hi, k, got[k], want[k])
			}
		}
	}
}
