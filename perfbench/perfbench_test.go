package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkFile is the subset of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tiny(workload string, trace int, t *testing.T) config {
	return config{workload: workload, seed: 7, seconds: 1, trace: trace, scale: 0.005, setups: 1, work: t.TempDir(), commit: "test"}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// checks that the oracle passes and that the JSON line carries exactly
// the metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	b := loadBenchmark(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloadNames))
	}
	for _, w := range b.Workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := run(tiny(w.Name, trace, t), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, trace, res.correct, res.attempted, res.failed)
			}
			want := b.EndToEnd
			if trace == 1 {
				want = b.PerLayer
			}
			got := jsonMetrics(res, trace)
			if len(got) != len(want) {
				t.Errorf("%s trace=%d: JSON line has %d metrics, BENCHMARK.json names %d", w.Name, trace, len(got), len(want))
			}
			for _, m := range want {
				if v, ok := got[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s (%s) not in the JSON line", w.Name, trace, m.Name, m.Unit)
				}
			}
		}
	}
}

// TestStructureRepeats sets every workload up twice at one seed and
// checks that the structural counters come out identical.
func TestStructureRepeats(t *testing.T) {
	for _, name := range workloadNames {
		var shapes [2]shape
		for i := range shapes {
			s, err := newSpec(name, 11, 0.005, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			sv, _, err := setup(s, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			h, err := openHandles(sv.d, s)
			if err == nil {
				shapes[i], err = measureShape(sv, s, h)
			}
			if cerr := sv.close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			// File sizes of the WAL and manifest depend on how the two
			// loading connections interleave; the structure does not.
			shapes[i].diskBytes, shapes[i].walBytes, shapes[i].manifestBytes = 0, 0, 0
		}
		if shapes[0] != shapes[1] {
			t.Errorf("%s: structure differs between two set-ups at one seed:\n%+v\n%+v", name, shapes[0], shapes[1])
		}
		if shapes[0].rows == 0 || shapes[0].leaves == 0 || shapes[0].blocks == 0 {
			t.Errorf("%s: empty structure %+v", name, shapes[0])
		}
	}
}

// TestOracleRejects checks that the oracle catches a missing row, a row
// outside the predicate and a stale value.
func TestOracleRejects(t *testing.T) {
	s, err := newSpec("synth-read", 3, 0.005, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := s.streams[0][0]
	for i := range s.streams[0] {
		if s.streams[0][i].cls == hermitRange && s.streams[0][i].want > 1 {
			o = s.streams[0][i]
			break
		}
	}
	var rows [][]float64
	for i := 0; i < s.rows(); i++ {
		if r := s.row(i); r[o.col] >= o.lo && r[o.col] <= o.hi {
			rows = append(rows, r)
		}
	}
	if !s.checkRead(0, &o, rows) {
		t.Fatal("oracle rejects the right rows")
	}
	if s.checkRead(0, &o, rows[1:]) {
		t.Error("oracle accepts a missing row")
	}
	out := append([]float64(nil), rows[0]...)
	out[o.col] = o.hi + 1
	if s.checkRead(0, &o, append([][]float64{out}, rows[1:]...)) {
		t.Error("oracle accepts a row outside the predicate")
	}

	in, err := newSpec("synth-ingest", 3, 0.005, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := in.ingest
	rng := op{cls: hermitRange, col: 2, lo: 0, hi: 1000, want: -1}
	var all [][]float64
	for i := 0; i < in.rows(); i++ {
		all = append(all, in.row(i))
	}
	if !in.checkRead(0, &rng, all) {
		t.Fatal("ingest oracle rejects the base table")
	}
	stale := append([]float64(nil), all[0]...) // key 0 is connection 0's
	stale[2] = stale[2] + 0.5
	if in.checkRead(0, &rng, append([][]float64{stale}, all[1:]...)) {
		t.Error("ingest oracle accepts a stale value of an owned key")
	}
	if bad, _ := g.checkFinal(all[1:]); bad == 0 {
		t.Error("final check accepts a missing row")
	}
}
