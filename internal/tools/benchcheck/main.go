// Command benchcheck validates the machine-readable BENCH_*.json
// artifacts the bench suite emits: every artifact must parse as JSON and
// record the experiment id, the generation seed, and the CPU topology
// (num_cpu, gomaxprocs) the numbers were measured under — without those
// a stored artifact cannot be compared against a later run. CI runs it
// after `make bench-all` via `make bench-check`; the multi-core lane
// additionally pins the expected GOMAXPROCS.
//
// BENCH_scenarios.json gets deeper validation: at least four scenarios,
// at least one of them replayed over the wire, each with a spec hash,
// matching trace_hash and trace_hash_recheck (the compile-determinism
// proof), and per-phase quantiles present and ordered p50 <= p99 <= p999.
// BENCH_hotpath.json must record complete lanes at GOMAXPROCS 1 and 4
// for every workload, including each pair whose difference is a layer's
// cost (see hotpathPairs).
//
// Usage:
//
//	go run ./internal/tools/benchcheck [-dir .] [-expect-gomaxprocs N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// artifact is the header every BENCH_*.json report shares; experiment
// files carry more fields, which benchcheck deliberately ignores.
type artifact struct {
	Experiment string          `json:"experiment"`
	Seed       *int64          `json:"seed"`
	NumCPU     int             `json:"num_cpu"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Caveat     string          `json:"caveat"`
	Raw        json.RawMessage `json:"-"`
}

func main() {
	var (
		dir    = flag.String("dir", ".", "directory holding BENCH_*.json artifacts")
		expect = flag.Int("expect-gomaxprocs", 0, "require every artifact to record this gomaxprocs (0 = only require presence)")
	)
	flag.Parse()
	os.Exit(run(*dir, *expect, os.Stdout, os.Stderr))
}

// run checks every BENCH_*.json artifact in dir, reporting each to stdout
// or stderr, and returns the process exit code: 0 when all pass, 1 when
// any fails or none exist, 2 on a bad glob.
func run(dir string, expectGomaxprocs int, stdout, stderr io.Writer) int {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v\n", err)
		return 2
	}
	if len(paths) == 0 {
		fmt.Fprintf(stderr, "benchcheck: no BENCH_*.json artifacts in %s\n", dir)
		return 1
	}
	sort.Strings(paths)

	bad := 0
	for _, path := range paths {
		if err := check(path, expectGomaxprocs); err != nil {
			fmt.Fprintf(stderr, "benchcheck: %s: %v\n", filepath.Base(path), err)
			bad++
			continue
		}
		fmt.Fprintf(stdout, "benchcheck: %s ok\n", filepath.Base(path))
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "benchcheck: %d of %d artifacts failed\n", bad, len(paths))
		return 1
	}
	fmt.Fprintf(stdout, "benchcheck: %d artifacts ok\n", len(paths))
	return 0
}

// check validates one artifact file.
func check(path string, expectGomaxprocs int) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var a artifact
	if err := json.Unmarshal(raw, &a); err != nil {
		return fmt.Errorf("not valid JSON: %v", err)
	}
	if a.Experiment == "" {
		return fmt.Errorf("missing \"experiment\"")
	}
	if a.Seed == nil {
		return fmt.Errorf("missing \"seed\"")
	}
	if a.NumCPU <= 0 {
		return fmt.Errorf("\"num_cpu\" is %d, want > 0", a.NumCPU)
	}
	if a.GOMAXPROCS <= 0 {
		return fmt.Errorf("\"gomaxprocs\" is %d, want > 0", a.GOMAXPROCS)
	}
	if expectGomaxprocs > 0 && a.GOMAXPROCS != expectGomaxprocs {
		return fmt.Errorf("\"gomaxprocs\" is %d, want %d (was the bench run with GOMAXPROCS set?)",
			a.GOMAXPROCS, expectGomaxprocs)
	}
	if a.Experiment == "scenarios" {
		return checkScenarios(raw)
	}
	if a.Experiment == "hotpath" {
		return checkHotpath(raw)
	}
	return nil
}

// hotpathArtifact is the slice of BENCH_hotpath.json benchcheck verifies
// beyond the shared header.
type hotpathArtifact struct {
	Lanes []struct {
		Workload    string   `json:"workload"`
		GOMAXPROCS  int      `json:"gomaxprocs"`
		Ops         int      `json:"ops"`
		NsPerOp     *float64 `json:"ns_per_op"`
		AllocsPerOp *float64 `json:"allocs_per_op"`
		OpsPerSec   *float64 `json:"ops_per_sec"`
		// PipelineDepth is the reads per op of a pipelined lane.
		PipelineDepth int `json:"pipeline_depth"`
	} `json:"lanes"`
}

// hotpathLaneProcs are the GOMAXPROCS values every hotpath workload must
// record a lane for — the single-core number and the multi-core proof.
var hotpathLaneProcs = []int{1, 4}

// hotpathPairs are the workload pairs whose difference is one layer's
// cost; both sides of each must be recorded:
//   - range_scan − snapshot_range: per-query snapshot registration;
//   - partitioned_scan_n1 vs range_scan and vs partitioned_scan: the
//     partition layer at one partition, and fan-out to four;
//   - wire_point vs wire_pipelined per read: what pipelining saves.
var hotpathPairs = [][2]string{
	{"range_scan", "snapshot_range"},
	{"range_scan", "partitioned_scan_n1"},
	{"partitioned_scan_n1", "partitioned_scan"},
	{"wire_point", "wire_pipelined"},
}

// checkHotpath enforces the hotpath artifact's extra contract: every
// workload carries a complete measurement (ops, ns/op, allocs/op,
// throughput) at both GOMAXPROCS lanes, and every layer-cost pair is
// present, so allocation regressions, multi-core claims and per-layer
// costs are all checkable from the stored artifact.
func checkHotpath(raw []byte) error {
	var ha hotpathArtifact
	if err := json.Unmarshal(raw, &ha); err != nil {
		return fmt.Errorf("hotpath block: %v", err)
	}
	if len(ha.Lanes) == 0 {
		return fmt.Errorf("no lanes recorded")
	}
	procsSeen := map[string]map[int]bool{}
	for _, l := range ha.Lanes {
		if l.Workload == "" {
			return fmt.Errorf("lane with empty workload")
		}
		if l.GOMAXPROCS <= 0 {
			return fmt.Errorf("%s: lane \"gomaxprocs\" is %d, want > 0", l.Workload, l.GOMAXPROCS)
		}
		if l.Ops <= 0 {
			return fmt.Errorf("%s@%d: no ops recorded", l.Workload, l.GOMAXPROCS)
		}
		if l.NsPerOp == nil || *l.NsPerOp <= 0 {
			return fmt.Errorf("%s@%d: missing ns_per_op", l.Workload, l.GOMAXPROCS)
		}
		if l.AllocsPerOp == nil || *l.AllocsPerOp < 0 {
			return fmt.Errorf("%s@%d: missing allocs_per_op", l.Workload, l.GOMAXPROCS)
		}
		if l.OpsPerSec == nil || *l.OpsPerSec <= 0 {
			return fmt.Errorf("%s@%d: missing ops_per_sec", l.Workload, l.GOMAXPROCS)
		}
		if l.Workload == "wire_pipelined" && l.PipelineDepth <= 0 { // per-read cost needs the depth
			return fmt.Errorf("%s@%d: missing pipeline_depth", l.Workload, l.GOMAXPROCS)
		}
		if procsSeen[l.Workload] == nil {
			procsSeen[l.Workload] = map[int]bool{}
		}
		procsSeen[l.Workload][l.GOMAXPROCS] = true
	}
	for w, seen := range procsSeen {
		for _, p := range hotpathLaneProcs {
			if !seen[p] {
				return fmt.Errorf("%s: no GOMAXPROCS=%d lane (multi-core numbers must be recorded)", w, p)
			}
		}
	}
	for _, pair := range hotpathPairs {
		for _, w := range pair {
			if procsSeen[w] == nil {
				return fmt.Errorf("no %s lane (%s vs %s is a recorded layer cost)", w, pair[0], pair[1])
			}
		}
	}
	return nil
}

// scenariosArtifact is the slice of BENCH_scenarios.json benchcheck
// verifies beyond the shared header.
type scenariosArtifact struct {
	Scenarios []struct {
		Name             string `json:"name"`
		Target           string `json:"target"`
		SpecHash         string `json:"spec_hash"`
		TraceHash        string `json:"trace_hash"`
		TraceHashRecheck string `json:"trace_hash_recheck"`
		Phases           []struct {
			Name       string   `json:"name"`
			Ops        int      `json:"ops"`
			P50Micros  *float64 `json:"p50_us"`
			P99Micros  *float64 `json:"p99_us"`
			P999Micros *float64 `json:"p999_us"`
		} `json:"phases"`
	} `json:"scenarios"`
}

// checkScenarios enforces the scenario artifact's extra contract: the
// canned-spec coverage floor, a served (wire-target) replay, the
// trace-hash determinism proof, and complete, ordered tail quantiles per
// phase.
func checkScenarios(raw []byte) error {
	var sa scenariosArtifact
	if err := json.Unmarshal(raw, &sa); err != nil {
		return fmt.Errorf("scenarios block: %v", err)
	}
	if len(sa.Scenarios) < 4 {
		return fmt.Errorf("only %d scenarios recorded, want >= 4", len(sa.Scenarios))
	}
	wire := false
	for _, s := range sa.Scenarios {
		wire = wire || s.Target == "wire"
		if s.Name == "" || s.Target == "" {
			return fmt.Errorf("scenario with empty name/target")
		}
		if s.SpecHash == "" || s.TraceHash == "" || s.TraceHashRecheck == "" {
			return fmt.Errorf("%s: missing spec/trace hashes", s.Name)
		}
		if s.TraceHash != s.TraceHashRecheck {
			return fmt.Errorf("%s: trace_hash %s != trace_hash_recheck %s — op trace is not deterministic",
				s.Name, s.TraceHash, s.TraceHashRecheck)
		}
		if len(s.Phases) == 0 {
			return fmt.Errorf("%s: no phases", s.Name)
		}
		for _, ph := range s.Phases {
			if ph.Ops <= 0 {
				return fmt.Errorf("%s/%s: no ops recorded", s.Name, ph.Name)
			}
			if ph.P50Micros == nil || ph.P99Micros == nil || ph.P999Micros == nil {
				return fmt.Errorf("%s/%s: missing p50/p99/p999", s.Name, ph.Name)
			}
			if *ph.P50Micros <= 0 || *ph.P99Micros < *ph.P50Micros || *ph.P999Micros < *ph.P99Micros {
				return fmt.Errorf("%s/%s: quantiles out of order: p50=%g p99=%g p999=%g",
					s.Name, ph.Name, *ph.P50Micros, *ph.P99Micros, *ph.P999Micros)
			}
		}
	}
	if !wire {
		return fmt.Errorf("no scenario replayed over the wire (target \"wire\")")
	}
	return nil
}
