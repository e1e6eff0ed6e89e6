package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestHotpathExperimentSmoke runs the hotpath experiment end to end at
// tiny scale and checks that BENCH_hotpath.json measures every workload,
// the layer-pair lanes included, at every GOMAXPROCS lane. benchcheck's
// TestFreshHotpathArtifact holds the same artifact to the full contract.
func TestHotpathExperimentSmoke(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	cfg := Config{
		Out:         &out,
		Scale:       0.0001,
		MeasureFor:  5 * time.Millisecond,
		Seed:        1,
		TmpDir:      t.TempDir(),
		Concurrency: 2,
		JSONDir:     dir,
	}
	if err := RunHotpath(cfg); err != nil {
		t.Fatalf("hotpath: %v\n%s", err, out.String())
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_hotpath.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep hotpathReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Experiment != "hotpath" || rep.Seed != 1 || rep.NumCPU <= 0 || rep.GOMAXPROCS <= 0 || rep.Caveat == "" {
		t.Fatalf("header garbled: %+v", rep)
	}
	seen := map[string]map[int]bool{}
	for _, l := range rep.Lanes {
		if l.Ops <= 0 {
			t.Fatalf("%s@%d: no ops measured", l.Workload, l.GOMAXPROCS)
		}
		if seen[l.Workload] == nil {
			seen[l.Workload] = map[int]bool{}
		}
		seen[l.Workload][l.GOMAXPROCS] = true
	}
	want := hotpathWorkloads()
	if len(seen) != len(want) {
		t.Fatalf("artifact has %d workloads, want %d", len(seen), len(want))
	}
	for _, w := range want {
		for _, procs := range hotpathProcs {
			if !seen[w.name][procs] {
				t.Fatalf("no %s lane at GOMAXPROCS=%d", w.name, procs)
			}
		}
	}
	for _, w := range []string{"snapshot_range", "partitioned_scan_n1", "wire_pipelined"} {
		if seen[w] == nil {
			t.Fatalf("no %s lane", w)
		}
	}
}
