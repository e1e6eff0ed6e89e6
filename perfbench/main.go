// Command perfbench is the repository's benchmark of the served Hermit
// path. It builds a server in-process exactly as cmd/hermitd does by
// default, loads a workload over the wire, drives it from two client
// connections, checks every result against an oracle, and prints the
// end-to-end metrics; with -trace 1 it also runs a traced phase and
// prints per-layer metrics. See README.md for the workloads and metrics.
//
//	go run . -workload synth-read -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"hermit/internal/engine"
	"hermit/internal/hermit"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    float64
	rate     float64
	setups   int
	work     string
	commit   string
}

// traceEvery samples one read in traceEvery for the rung replay, and one
// write in traceEvery for a durable rung.
const traceEvery = 8

// recoveries is how many times synth-ingest reopens its database after
// the run; recovery_s is their median.
const recoveries = 3

// e2eNames are the end-to-end metrics printed in the JSON line of an
// untraced run: the ones that apply to every workload, are never 0 and
// repeat from run to run on every workload (see README.md).
var e2eNames = []string{
	"throughput_ops_s", "read_p50_us", "hermit_range_p50_us",
	"setup_s", "hermit_bytes_per_row", "index_bytes_per_row", "heap_mb", "disk_bytes_per_user_byte",
}

type result struct {
	correct           bool
	attempted, failed int
	e2e, layer        metrics
}

func main() {
	cfg := config{setups: 3}
	flag.StringVar(&cfg.workload, "workload", "", "workload: synth-read, sensor-fanout or synth-ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds (split between the untraced and traced phases with -trace 1)")
	flag.IntVar(&cfg.trace, "trace", 0, "1 adds a traced phase and prints per-layer metrics")
	flag.Float64Var(&cfg.scale, "scale", 1, "row-count multiplier (tests run tiny scales)")
	flag.Float64Var(&cfg.rate, "rate", 0, "synth-ingest offered ops/s (0: the default; -1: closed loop, to measure capacity)")
	flag.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for databases and spans")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision, for the header")
	flag.Parse()

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]jsonVal `json:"metrics"`
	}{res.correct, res.attempted, res.failed, jsonMetrics(res, cfg.trace)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type jsonVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonMetrics picks the metrics of the JSON line: untraced, the gated
// end-to-end metrics; traced, the per-layer metrics every workload has.
func jsonMetrics(res *result, trace int) map[string]jsonVal {
	ms := map[string]jsonVal{}
	if trace == 0 {
		for _, m := range res.e2e {
			if slices.Contains(e2eNames, m.name) {
				ms[m.name] = jsonVal{m.value, m.unit}
			}
		}
		return ms
	}
	for _, m := range res.layer {
		if !slices.Contains(layerSpecific, m.name) {
			ms[m.name] = jsonVal{m.value, m.unit}
		}
	}
	return ms
}

// run executes one benchmark run and writes the human-readable report to w.
func run(cfg config, w io.Writer) (*result, error) {
	if cfg.trace != 0 && cfg.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 {
		return nil, fmt.Errorf("-seconds and -scale must be positive")
	}
	floor, err := tcpFloor()
	if err != nil {
		return nil, fmt.Errorf("tcp floor: %w", err)
	}
	fmt.Fprintf(w, "header   nproc=%d gomaxprocs=%d go=%s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.commit)
	fmt.Fprintf(w, "header   workload=%s seed=%d seconds=%g trace=%d scale=%g connections=%d\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.scale, conns)
	fmt.Fprintf(w, "header   flush_policy=SyncNever (a write is acknowledged after the OS write of its WAL record, without fsync)\n")
	fmt.Fprintf(w, "header   server=%s\n", serverConfig)
	fmt.Fprintf(w, "header   wire.tcp_floor_us=%.3f (median loopback echo of 8 bytes)\n", floor)
	fmt.Fprintf(w, "header   mem_probe_ns=%.1f (random-walk memory latency: compares the machine between runs)\n", memProbe())

	s, err := newSpec(cfg.workload, cfg.seed, cfg.scale, cfg.seconds, cfg.rate)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "header   rows=%d columns=%d partitions=%d hermit_indexes=%d open_loop=%v offered_ops_s=%g\n",
		s.rows(), s.ncols(), s.parts, len(s.hermits), s.openLoop, s.rate)
	for c := range s.streams {
		fmt.Fprintf(w, "stream   conn=%d ops=%d sha256=%s\n", c, len(s.streams[c]), streamHash(s.streams[c]))
	}

	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	heap0 := heapInuse()
	setups := cfg.setups
	if cfg.trace == 1 {
		setups = 1
	}
	var times []float64
	var sv *served
	dir := filepath.Join(cfg.work, "db-"+cfg.workload)
	defer os.RemoveAll(dir)
	for i := 0; i < setups; i++ {
		x, d, err := setup(s, dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, d.Seconds())
		fmt.Fprintf(w, "setup    %d %.4f s\n", i, d.Seconds())
		if i == setups-1 {
			sv = x
		} else if err := x.close(); err != nil {
			return nil, err
		}
	}
	heapMB := float64(int64(heapInuse())-int64(heap0)) / (1 << 20)
	h, err := openHandles(sv.d, s)
	if err != nil {
		sv.close()
		return nil, err
	}
	sh0, err := measureShape(sv, s, h)
	if err != nil {
		sv.close()
		return nil, err
	}
	sh0.print(w, "setup")
	syncFS()

	steal0, total0 := cpuSteal()
	r := &runner{s: s, sv: sv, h: h}
	wAtt, wBad := r.warm(time.Duration(math.Min(1, cfg.seconds/10) * float64(time.Second)))
	var un, tr *phaseResult
	if cfg.trace == 0 {
		un = r.phase(cfg.seconds, nil)
	} else {
		un = r.phase(cfg.seconds/2, nil)
		tr = r.phase(cfg.seconds/2, newTracing())
	}
	steal1, total1 := cpuSteal()
	fmt.Fprintf(w, "host     steal=%.2f%% of CPU time while measuring (time the hypervisor ran something else)\n",
		100*ratio(float64(steal1-steal0), float64(total1-total0)))
	res := &result{attempted: wAtt, failed: wBad}
	for _, p := range []*phaseResult{un, tr} {
		if p == nil {
			continue
		}
		res.attempted += p.attempted()
		res.failed += p.failed()
		if p.ckptErr != nil {
			res.failed++
			fmt.Fprintf(w, "error    checkpoint: %v\n", p.ckptErr)
		}
	}

	sh1, err := measureShape(sv, s, h)
	if err != nil {
		sv.close()
		return nil, err
	}
	sh1.print(w, "end")
	storage := sv.d.StorageStats()
	var recovery []float64
	if s.ingest != nil {
		for _, p := range []*phaseResult{un, tr} {
			if p != nil {
				for _, rec := range p.recs {
					s.ingest.reserved += rec.reserved
				}
			}
		}
		res.attempted++
		res.failed += finalCheck(w, "served", s, h)
	}
	if err := sv.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if s.ingest != nil {
		for i := 0; i < recoveries; i++ {
			t0 := time.Now()
			d, err := engine.OpenDurableOptions(dir, hermit.PhysicalPointers, durableOpts)
			if err != nil {
				return nil, fmt.Errorf("reopen: %w", err)
			}
			recovery = append(recovery, time.Since(t0).Seconds())
			h2, err := openHandles(d, s)
			res.attempted++
			if err != nil {
				res.failed++
			} else {
				res.failed += finalCheck(w, fmt.Sprintf("reopen-%d", i), s, h2)
			}
			if err := d.Close(); err != nil {
				return nil, err
			}
		}
	}
	res.correct = res.failed == 0

	// End-to-end metrics, from the untraced phase.
	e := &res.e2e
	reads := []class{hermitRange, btreeRange, pkRange, pkPoint}
	e.add("throughput_ops_s", un.throughput(s.openLoop), "ops/s")
	e.addWindowed("read_p50_us", un, 0.50, reads...)
	e.addWindowed("read_p99_us", un, 0.99, reads...)
	e.addWindowed("hermit_range_p50_us", un, 0.50, hermitRange)
	e.addWindowed("hermit_range_p99_us", un, 0.99, hermitRange)
	e.add("setup_s", medianF(times), "s")
	e.add("hermit_bytes_per_row", ratio(float64(sh0.trsBytes), float64(sh0.rows)), "B/row")
	e.add("index_bytes_per_row", ratio(float64(sh0.indexBytes), float64(sh0.rows)), "B/row")
	e.add("heap_mb", heapMB, "MiB")
	e.add("disk_bytes_per_user_byte", ratio(float64(sh1.diskBytes), float64(sh1.rows*s.ncols()*8)), "ratio")
	// The rest apply to some workloads only, or are 0 by design; they
	// are printed but not part of the JSON line.
	if un.count(btreeRange) > 0 {
		e.addWindowed("btree_range_p50_us", un, 0.50, btreeRange)
	}
	if un.count(insertOp, updateOp) > 0 {
		e.addWindowed("write_p50_us", un, 0.50, insertOp, updateOp)
		e.addWindowed("write_p99_us", un, 0.99, insertOp, updateOp)
	}
	if s.openLoop {
		e.add("offered_ops_s", s.rate, "ops/s")
	}
	e.add("error_rate", ratio(float64(res.failed), float64(res.attempted)), "ratio")
	if len(recovery) > 0 {
		e.add("recovery_s", medianF(recovery), "s")
	}
	res.e2e.print(w, "e2e")
	if tr != nil {
		res.layer = layerMetrics(s, un, tr, sh0, sh1, storage, floor)
		res.layer.print(w, "layer")
		printSelfTimes(w, tr.tracing)
		path := filepath.Join(cfg.work, "spans-"+cfg.workload+".tsv")
		if err := writeSpans(path, tr.tracing.allSpans()); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(w, "spans    %s\n", path)
	}
	fmt.Fprintf(w, "result   correct=%v attempted=%d failed=%d\n", res.correct, res.attempted, res.failed)
	return res, nil
}

// finalCheck compares synth-ingest's table with its oracle and returns
// the number of mismatches.
func finalCheck(w io.Writer, when string, s *spec, h *handles) int {
	rows, err := h.scanAll()
	if err != nil {
		fmt.Fprintf(w, "error    %s scan: %v\n", when, err)
		return 1
	}
	bad, err := s.ingest.checkFinal(rows)
	if err != nil {
		fmt.Fprintf(w, "error    %s %v\n", when, err)
		return bad
	}
	fmt.Fprintf(w, "check    %s final state ok: %d rows\n", when, len(rows))
	return 0
}

func (sh shape) print(w io.Writer, when string) {
	fmt.Fprintf(w, "struct   %s rows=%d trstree.leaves=%d trstree.height=%d trstree.outliers=%d trstree.bytes=%d trstree.pending_reorg=%d btree.bytes=%d index.bytes=%d blocks=%d block.entries=%d block.bytes=%d\n",
		when, sh.rows, sh.leaves, sh.height, sh.outliers, sh.trsBytes, sh.pendingReorg, sh.btreeBytes, sh.indexBytes, sh.blocks, sh.blockEntries, sh.blockBytes)
	fmt.Fprintf(w, "disk     %s total=%d wal=%d manifest=%d\n", when, sh.diskBytes, sh.walBytes, sh.manifestBytes)
}

// memProbe is the median of five timings of a dependent random walk
// over a 32 MiB array, in ns per step: the machine's memory latency. The
// served path is memory-bound, and on a shared host this latency moves
// between runs with the neighbours' load; the probe shows when it did.
func memProbe() float64 {
	const n = 1 << 23
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := n - 1; i > 0; i-- { // Sattolo: one cycle through every slot
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	const steps = 1 << 19
	var ns []float64
	p := uint32(0)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for k := 0; k < steps; k++ {
			p = next[p]
		}
		ns = append(ns, float64(time.Since(t0))/steps)
	}
	if p == n { // never true; keeps the walk from being optimised away
		ns = append(ns, 0)
	}
	return medianF(ns)
}

// cpuSteal returns the steal and total jiffies of /proc/stat's cpu line
// (zeros where there is no /proc/stat).
func cpuSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}

// tcpFloor is the median round trip of an 8-byte loopback echo: the
// wire's floor, written in the benchmark's own code.
func tcpFloor() (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c)
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 8)
	var rtt []float64
	for i := 0; i < 3000; i++ {
		t0 := time.Now()
		if _, err := c.Write(buf); err != nil {
			c.Close()
			return 0, err
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			c.Close()
			return 0, err
		}
		if i >= 500 {
			rtt = append(rtt, float64(time.Since(t0))/1e3)
		}
	}
	c.Close()
	<-done
	return medianF(rtt), nil
}
