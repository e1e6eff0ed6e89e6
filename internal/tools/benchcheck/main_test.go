package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// header is a valid shared artifact header for experiment exp.
func header(exp string) string {
	return `"experiment": "` + exp + `", "seed": 1, "num_cpu": 2, "gomaxprocs": 2`
}

const goodLanes = `"lanes": [
	{"workload": "w", "gomaxprocs": 1, "ops": 10, "ns_per_op": 5, "allocs_per_op": 0, "ops_per_sec": 100},
	{"workload": "w", "gomaxprocs": 4, "ops": 10, "ns_per_op": 5, "allocs_per_op": 0, "ops_per_sec": 100}]`

// scenario returns one scenario entry with the given hashes and quantiles.
func scenario(name, trace, recheck, quantiles string) string {
	return `{"name": "` + name + `", "target": "embedded", "spec_hash": "s", "trace_hash": "` + trace +
		`", "trace_hash_recheck": "` + recheck + `", "phases": [{"name": "p", "ops": 3, ` + quantiles + `}]}`
}

func scenarios(extra string) string {
	q := `"p50_us": 1, "p99_us": 2, "p999_us": 3`
	list := []string{scenario("a", "h", "h", q), scenario("b", "h", "h", q), scenario("c", "h", "h", q)}
	if extra != "" {
		list = append(list, extra)
	}
	return `"scenarios": [` + strings.Join(list, ",") + `]`
}

func TestCheck(t *testing.T) {
	good := scenario("d", "h", "h", `"p50_us": 1, "p99_us": 2, "p999_us": 3`)
	cases := []struct {
		name    string
		body    string
		expect  int
		wantErr string
	}{
		{"plain ok", `{` + header("txn") + `}`, 0, ""},
		{"expected gomaxprocs ok", `{` + header("txn") + `}`, 2, ""},
		{"not json", `{`, 0, "not valid JSON"},
		{"no experiment", `{"seed": 1, "num_cpu": 1, "gomaxprocs": 1}`, 0, `missing "experiment"`},
		{"no seed", `{"experiment": "x", "num_cpu": 1, "gomaxprocs": 1}`, 0, `missing "seed"`},
		{"no num_cpu", `{"experiment": "x", "seed": 0, "gomaxprocs": 1}`, 0, `"num_cpu" is 0`},
		{"no gomaxprocs", `{"experiment": "x", "seed": 0, "num_cpu": 1}`, 0, `"gomaxprocs" is 0`},
		{"wrong gomaxprocs", `{` + header("txn") + `}`, 4, "want 4"},

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

		{"scenarios ok", `{` + header("scenarios") + `, ` + scenarios(good) + `}`, 0, ""},
		{"scenarios bad block", `{` + header("scenarios") + `, "scenarios": {}}`, 0, "scenarios block"},
		{"scenarios too few", `{` + header("scenarios") + `, ` + scenarios("") + `}`, 0, "only 3 scenarios"},
		{"scenario unnamed", `{` + header("scenarios") + `, ` + scenarios(`{"target": "x"}`) + `}`, 0, "empty name/target"},
		{"scenario no hashes", `{` + header("scenarios") + `, ` + scenarios(`{"name": "d", "target": "x"}`) + `}`, 0, "missing spec/trace hashes"},
		{"scenario nondeterministic", `{` + header("scenarios") + `, ` + scenarios(scenario("d", "h1", "h2", `"p50_us": 1, "p99_us": 2, "p999_us": 3`)) + `}`, 0, "not deterministic"},
		{"scenario no phases", `{` + header("scenarios") + `, ` + scenarios(`{"name": "d", "target": "x", "spec_hash": "s", "trace_hash": "h", "trace_hash_recheck": "h"}`) + `}`, 0, "no phases"},
		{"phase no ops", `{` + header("scenarios") + `, ` + scenarios(`{"name": "d", "target": "x", "spec_hash": "s", "trace_hash": "h", "trace_hash_recheck": "h", "phases": [{"name": "p"}]}`) + `}`, 0, "no ops recorded"},
		{"phase no quantiles", `{` + header("scenarios") + `, ` + scenarios(scenario("d", "h", "h", `"p50_us": 1`)) + `}`, 0, "missing p50/p99/p999"},
		{"phase unordered", `{` + header("scenarios") + `, ` + scenarios(scenario("d", "h", "h", `"p50_us": 3, "p99_us": 2, "p999_us": 1`)) + `}`, 0, "out of order"},
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

// TestCommittedArtifacts runs the gate over the artifacts committed at the
// repository root, as `make bench-check` does.
func TestCommittedArtifacts(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(filepath.Join("..", "..", ".."), 0, &out, &errOut); code != 0 {
		t.Fatalf("committed artifacts fail benchcheck: %s", errOut.String())
	}
}
