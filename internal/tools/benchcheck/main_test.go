package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hermit/internal/bench"
)

// header is a valid shared artifact header for experiment exp.
func header(exp string) string {
	return `"experiment": "` + exp + `", "seed": 1, "num_cpu": 2, "gomaxprocs": 2`
}

// hotpathWorkloads are the workloads a complete hotpath artifact records.
var hotpathWorkloads = []string{"range_scan", "snapshot_range", "partitioned_scan_n1",
	"partitioned_scan", "wire_point", "wire_pipelined"}

// lanes returns a "lanes" block with complete GOMAXPROCS 1 and 4 lanes for
// every workload in hotpathWorkloads except skip.
func lanes(skip string) string {
	var list []string
	for _, w := range hotpathWorkloads {
		if w == skip {
			continue
		}
		for _, procs := range []string{"1", "4"} {
			list = append(list, `{"workload": "`+w+`", "gomaxprocs": `+procs+
				`, "ops": 10, "ns_per_op": 5, "allocs_per_op": 0, "ops_per_sec": 100, "pipeline_depth": 32}`)
		}
	}
	return `"lanes": [` + strings.Join(list, ",") + `]`
}

var goodLanes = lanes("")

// scenario returns one scenario entry with the given target, hashes and
// quantiles.
func scenario(name, target, trace, recheck, quantiles string) string {
	return `{"name": "` + name + `", "target": "` + target + `", "spec_hash": "s", "trace_hash": "` + trace +
		`", "trace_hash_recheck": "` + recheck + `", "phases": [{"name": "p", "ops": 3, ` + quantiles + `}]}`
}

const goodQuantiles = `"p50_us": 1, "p99_us": 2, "p999_us": 3`

// scenarios returns a "scenarios" block of three good embedded entries
// plus extra, when given.
func scenarios(extra string) string {
	list := []string{scenario("a", "embed", "h", "h", goodQuantiles), scenario("b", "embed", "h", "h", goodQuantiles),
		scenario("c", "embed", "h", "h", goodQuantiles)}
	if extra != "" {
		list = append(list, extra)
	}
	return `"scenarios": [` + strings.Join(list, ",") + `]`
}

func TestCheck(t *testing.T) {
	good := scenario("d", "wire", "h", "h", goodQuantiles)
	cases := []struct {
		name    string
		body    string
		expect  int
		wantErr string
	}{
		{"plain ok", `{` + header("repl") + `}`, 0, ""},
		{"expected gomaxprocs ok", `{` + header("repl") + `}`, 2, ""},
		{"not json", `{`, 0, "not valid JSON"},
		{"no experiment", `{"seed": 1, "num_cpu": 1, "gomaxprocs": 1}`, 0, `missing "experiment"`},
		{"no seed", `{"experiment": "x", "num_cpu": 1, "gomaxprocs": 1}`, 0, `missing "seed"`},
		{"no num_cpu", `{"experiment": "x", "seed": 0, "gomaxprocs": 1}`, 0, `"num_cpu" is 0`},
		{"no gomaxprocs", `{"experiment": "x", "seed": 0, "num_cpu": 1}`, 0, `"gomaxprocs" is 0`},
		{"wrong gomaxprocs", `{` + header("repl") + `}`, 4, "want 4"},

		{"hotpath ok", `{` + header("hotpath") + `, ` + goodLanes + `}`, 0, ""},
		{"hotpath bad block", `{` + header("hotpath") + `, "lanes": 3}`, 0, "hotpath block"},
		{"hotpath no lanes", `{` + header("hotpath") + `, "lanes": []}`, 0, "no lanes"},
		{"hotpath empty workload", `{` + header("hotpath") + `, "lanes": [{"gomaxprocs": 1}]}`, 0, "empty workload"},
		{"hotpath lane procs", `{` + header("hotpath") + `, "lanes": [{"workload": "w"}]}`, 0, `lane "gomaxprocs" is 0`},
		{"hotpath no ops", `{` + header("hotpath") + `, "lanes": [{"workload": "w", "gomaxprocs": 1}]}`, 0, "no ops"},
		{"hotpath no ns", `{` + header("hotpath") + `, "lanes": [{"workload": "w", "gomaxprocs": 1, "ops": 1}]}`, 0, "missing ns_per_op"},
		{"hotpath no allocs", `{` + header("hotpath") + `, "lanes": [{"workload": "w", "gomaxprocs": 1, "ops": 1, "ns_per_op": 1}]}`, 0, "missing allocs_per_op"},
		{"hotpath no throughput", `{` + header("hotpath") + `, "lanes": [{"workload": "w", "gomaxprocs": 1, "ops": 1, "ns_per_op": 1, "allocs_per_op": 0}]}`, 0, "missing ops_per_sec"},
		{"hotpath missing lane", `{` + header("hotpath") + `, "lanes": [{"workload": "w", "gomaxprocs": 1, "ops": 1, "ns_per_op": 1, "allocs_per_op": 0, "ops_per_sec": 1}]}`, 0, "no GOMAXPROCS=4 lane"},
		{"hotpath no snapshot_range", `{` + header("hotpath") + `, ` + lanes("snapshot_range") + `}`, 0, "no snapshot_range lane"},
		{"hotpath no partitioned_scan_n1", `{` + header("hotpath") + `, ` + lanes("partitioned_scan_n1") + `}`, 0, "no partitioned_scan_n1 lane"},
		{"hotpath no wire_pipelined", `{` + header("hotpath") + `, ` + lanes("wire_pipelined") + `}`, 0, "no wire_pipelined lane"},
		{"hotpath no pipeline depth", `{` + header("hotpath") + `, "lanes": [{"workload": "wire_pipelined", "gomaxprocs": 1, "ops": 1, "ns_per_op": 1, "allocs_per_op": 0, "ops_per_sec": 1}]}`, 0, "missing pipeline_depth"},

		{"scenarios ok", `{` + header("scenarios") + `, ` + scenarios(good) + `}`, 0, ""},
		{"scenarios bad block", `{` + header("scenarios") + `, "scenarios": {}}`, 0, "scenarios block"},
		{"scenarios too few", `{` + header("scenarios") + `, ` + scenarios("") + `}`, 0, "only 3 scenarios"},
		{"scenarios no wire target", `{` + header("scenarios") + `, ` + scenarios(scenario("d", "durable", "h", "h", goodQuantiles)) + `}`, 0, "no scenario replayed over the wire"},
		{"scenario unnamed", `{` + header("scenarios") + `, ` + scenarios(`{"target": "x"}`) + `}`, 0, "empty name/target"},
		{"scenario no hashes", `{` + header("scenarios") + `, ` + scenarios(`{"name": "d", "target": "x"}`) + `}`, 0, "missing spec/trace hashes"},
		{"scenario nondeterministic", `{` + header("scenarios") + `, ` + scenarios(scenario("d", "wire", "h1", "h2", goodQuantiles)) + `}`, 0, "not deterministic"},
		{"scenario no phases", `{` + header("scenarios") + `, ` + scenarios(`{"name": "d", "target": "x", "spec_hash": "s", "trace_hash": "h", "trace_hash_recheck": "h"}`) + `}`, 0, "no phases"},
		{"phase no ops", `{` + header("scenarios") + `, ` + scenarios(`{"name": "d", "target": "x", "spec_hash": "s", "trace_hash": "h", "trace_hash_recheck": "h", "phases": [{"name": "p"}]}`) + `}`, 0, "no ops recorded"},
		{"phase no quantiles", `{` + header("scenarios") + `, ` + scenarios(scenario("d", "wire", "h", "h", `"p50_us": 1`)) + `}`, 0, "missing p50/p99/p999"},
		{"phase unordered", `{` + header("scenarios") + `, ` + scenarios(scenario("d", "wire", "h", "h", `"p50_us": 3, "p99_us": 2, "p999_us": 1`)) + `}`, 0, "out of order"},
	}
	dir := t.TempDir()
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, "BENCH_case"+string(rune('a'+i))+".json")
			if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
				t.Fatal(err)
			}
			err := check(path, c.expect)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("want ok, got %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("want an error containing %q, got %v", c.wantErr, err)
			}
		})
	}
	if err := check(filepath.Join(dir, "missing.json"), 0); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRun(t *testing.T) {
	var out, errOut bytes.Buffer
	empty := t.TempDir()
	if code := run(empty, 0, &out, &errOut); code != 1 || !strings.Contains(errOut.String(), "no BENCH_*.json") {
		t.Fatalf("empty dir: code %d, stderr %q", code, errOut.String())
	}
	if code := run("[", 0, &out, &errOut); code != 2 {
		t.Fatalf("bad glob: code %d", code)
	}

	dir := t.TempDir()
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("BENCH_a.json", `{`+header("a")+`}`)
	write("BENCH_b.json", `{`+header("hotpath")+`, `+goodLanes+`}`)
	out.Reset()
	errOut.Reset()
	if code := run(dir, 2, &out, &errOut); code != 0 {
		t.Fatalf("good artifacts: code %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "2 artifacts ok") {
		t.Fatalf("stdout %q", out.String())
	}
	write("BENCH_c.json", `{"experiment": ""}`)
	errOut.Reset()
	if code := run(dir, 0, &out, &errOut); code != 1 || !strings.Contains(errOut.String(), "1 of 3 artifacts failed") {
		t.Fatalf("one bad artifact: code %d, stderr %q", code, errOut.String())
	}
}

// TestFreshHotpathArtifact runs the hotpath experiment at tiny scale and
// holds the artifact it writes to the hotpath contract, so a lane the
// contract requires cannot be dropped from the experiment unnoticed.
func TestFreshHotpathArtifact(t *testing.T) {
	dir := t.TempDir()
	cfg := bench.Config{
		Out:        io.Discard,
		Scale:      0.0001,
		MeasureFor: 5 * time.Millisecond,
		Seed:       1,
		TmpDir:     t.TempDir(),
		JSONDir:    dir,
	}
	if err := bench.RunHotpath(cfg); err != nil {
		t.Fatal(err)
	}
	if err := check(filepath.Join(dir, "BENCH_hotpath.json"), 0); err != nil {
		t.Fatalf("fresh hotpath artifact fails benchcheck: %v", err)
	}
}

// TestCommittedArtifacts runs the gate over the artifacts committed at the
// repository root, as `make bench-check` does.
func TestCommittedArtifacts(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(filepath.Join("..", "..", ".."), 0, &out, &errOut); code != 0 {
		t.Fatalf("committed artifacts fail benchcheck: %s", errOut.String())
	}
}
