package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hermit/internal/client"
	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/partition"
	"hermit/internal/server"
	"hermit/internal/storage"
)

// The hotpath experiment measures the allocator cost of the engine's
// hottest operations — embedded PK point read, embedded range scan (per
// query snapshot and held snapshot), embedded Hermit range, partitioned
// scan at one and at hotpathPartitions partitions, durable WAL-logged
// insert, and wire-protocol point reads through hermitd (one per round
// trip and hotpathPipelineDepth per pipelined flush) — as allocs/op,
// bytes/op, ns/op, and throughput, each at GOMAXPROCS 1 and 4. The
// artifact is the regression baseline for the zero-alloc read-path
// contract: the same numbers `testing.AllocsPerRun` guards enforce in
// tier-1 are recorded here with throughput context, so a speed pass can
// prove its allocation wins from artifacts alone.
//
// Adjacent lanes share a fixture, so a layer's cost is a subtraction:
// range_scan − snapshot_range is per-query snapshot registration;
// partitioned_scan_n1 − range_scan is the partition layer at N=1 and
// partitioned_scan ÷ partitioned_scan_n1 the fan-out cost at N=4;
// wire_point against wire_pipelined ÷ pipeline_depth is what pipelining
// saves per read.

// hotpathCaveat is recorded verbatim in the JSON artifact.
const hotpathCaveat = "ns/op and ops/sec track the container; the durable " +
	"signal is allocs/op (deterministic for a fixed code version and " +
	"workload) and its ratio across GOMAXPROCS lanes — allocation-free " +
	"paths must stay allocation-free on multi-core runs"

// hotpathProcs is the GOMAXPROCS lanes every workload is measured under;
// the multi-core lane is what proves pooled paths do not regress when the
// GC and scatter-gather workers actually run in parallel.
var hotpathProcs = []int{1, 4}

// hotpathPartitions is the partition fan-out of the partitioned_scan lane.
const hotpathPartitions = 4

// hotpathPipelineDepth is how many point reads one wire_pipelined op
// writes per flush — deep enough for the server's read coalescing to
// engage, shallow enough for an application batching its reads.
const hotpathPipelineDepth = 32

// hotpathSpan is the row span of each range/partitioned scan.
const hotpathSpan = 256

// hotpathHermitSpan is the row span of each hermit_range lookup, the
// about-100-row range the served benchmark issues.
const hotpathHermitSpan = 100

// hotpathNoise is the fraction of hermit_range rows placed off the
// correlation, so they land in the TRS-Tree's outlier buffer.
const hotpathNoise = 0.01

// hotpathLane is one (workload, GOMAXPROCS) measurement.
type hotpathLane struct {
	Workload    string  `json:"workload"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	// PipelineDepth is the number of reads one op carries (wire_pipelined
	// only): its per-read cost is ns_per_op / pipeline_depth.
	PipelineDepth int `json:"pipeline_depth,omitempty"`
}

// hotpathReport is the schema of BENCH_hotpath.json.
type hotpathReport struct {
	Experiment string        `json:"experiment"`
	Rows       int           `json:"rows"`
	Scale      float64       `json:"scale"`
	Seed       int64         `json:"seed"`
	NumCPU     int           `json:"num_cpu"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Caveat     string        `json:"caveat"`
	Lanes      []hotpathLane `json:"lanes"`
}

// hotpathWorkload is one measured operation: setup builds the fixture and
// returns the op closure (driven by one goroutine) plus its teardown.
type hotpathWorkload struct {
	name  string
	setup func(cfg Config, n int) (op func() error, teardown func(), err error)
}

// hotpathWorkloads lists the measured operations in report order.
func hotpathWorkloads() []hotpathWorkload {
	return []hotpathWorkload{
		{"point_read", setupHotpathPoint},
		{"range_scan", setupHotpathRange},
		{"snapshot_range", setupHotpathSnapshotRange},
		{"hermit_range", setupHotpathHermitRange},
		{"partitioned_scan_n1", hotpathPartitioned(1)},
		{"partitioned_scan", hotpathPartitioned(hotpathPartitions)},
		{"durable_insert", setupHotpathDurableInsert},
		{"wire_point", setupHotpathWirePoint},
		{"wire_pipelined", setupHotpathWirePipelined},
	}
}

// hotpathCols is the two-column schema every hotpath fixture uses.
func hotpathCols() []string { return []string{"pk", "val"} }

// buildHotpathTable fills an embedded table with n rows, pk = 0..n-1.
func buildHotpathTable(n int) (*engine.Table, error) {
	db := engine.NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("hot", hotpathCols(), 0)
	if err != nil {
		return nil, err
	}
	tb.SetRouting(engine.RouteStatic)
	for i := 0; i < n; i++ {
		if _, err := tb.Insert([]float64{float64(i), float64(i) * 0.5}); err != nil {
			return nil, err
		}
	}
	return tb, nil
}

// setupHotpathPoint measures a PK point read through the caller-buffer
// query API — the path the zero-alloc contract covers.
func setupHotpathPoint(cfg Config, n int) (func() error, func(), error) {
	tb, err := buildHotpathTable(n)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 11))
	var dst []storage.RID
	op := func() error {
		rids, _, err := tb.PointQueryInto(0, float64(rng.Intn(n)), dst)
		if err != nil {
			return err
		}
		if len(rids) != 1 {
			return fmt.Errorf("point read matched %d rows, want 1", len(rids))
		}
		dst = rids
		return nil
	}
	return op, func() {}, nil
}

// setupHotpathRange measures a primary-index range scan spanning
// hotpathSpan rows, again through the caller-buffer API.
func setupHotpathRange(cfg Config, n int) (func() error, func(), error) {
	tb, err := buildHotpathTable(n)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	var dst []storage.RID
	op := func() error {
		lo := float64(rng.Intn(n - hotpathSpan))
		rids, _, err := tb.RangeQueryInto(0, lo, lo+hotpathSpan-1, dst)
		if err != nil {
			return err
		}
		if len(rids) != hotpathSpan {
			return fmt.Errorf("range scan matched %d rows, want %d", len(rids), hotpathSpan)
		}
		dst = rids
		return nil
	}
	return op, func() {}, nil
}

// setupHotpathSnapshotRange is setupHotpathRange reading at one snapshot
// held for the whole lane, so no query registers a snapshot of its own.
func setupHotpathSnapshotRange(cfg Config, n int) (func() error, func(), error) {
	tb, err := buildHotpathTable(n)
	if err != nil {
		return nil, nil, err
	}
	snap := tb.Snapshot()
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	var dst []storage.RID
	op := func() error {
		lo := float64(rng.Intn(n - hotpathSpan))
		rids, _, err := tb.RangeQueryAtInto(snap, 0, lo, lo+hotpathSpan-1, dst)
		if err != nil {
			return err
		}
		if len(rids) != hotpathSpan {
			return fmt.Errorf("snapshot range scan matched %d rows, want %d", len(rids), hotpathSpan)
		}
		dst = rids
		return nil
	}
	return op, snap.Release, nil
}

// setupHotpathHermitRange measures a Hermit range of hotpathHermitSpan
// rows through the caller-buffer API: TRS-Tree lookup over a one-leaf tree
// whose buffer holds hotpathNoise of the rows, host B+-tree probe, and
// base-table validation. Target values are the integers 0..n-1, so every
// range matches exactly hotpathHermitSpan rows.
func setupHotpathHermitRange(cfg Config, n int) (func() error, func(), error) {
	db := engine.NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("hot", []string{"pk", "host", "target"}, 0)
	if err != nil {
		return nil, nil, err
	}
	tb.SetRouting(engine.RouteStatic)
	rng := rand.New(rand.NewSource(cfg.Seed + 23))
	for i := 0; i < n; i++ {
		target := float64(i)
		host := 2*target + 100
		if rng.Float64() < hotpathNoise {
			host = rng.Float64() * float64(2*n+100)
		}
		if _, err := tb.Insert([]float64{float64(i), host, target}); err != nil {
			return nil, nil, err
		}
	}
	if _, err := tb.CreateBTreeIndex(1, false); err != nil {
		return nil, nil, err
	}
	hx, err := tb.CreateHermitIndex(2, 1)
	if err != nil {
		return nil, nil, err
	}
	if leaves := hx.Tree().LeafCount(); leaves != 1 {
		return nil, nil, fmt.Errorf("hermit_range tree has %d leaves, want 1", leaves)
	}
	var dst []storage.RID
	op := func() error {
		lo := float64(rng.Intn(n - hotpathHermitSpan))
		rids, _, err := tb.RangeQueryInto(2, lo, lo+hotpathHermitSpan-1, dst)
		if err != nil {
			return err
		}
		if len(rids) != hotpathHermitSpan {
			return fmt.Errorf("hermit range matched %d rows, want %d", len(rids), hotpathHermitSpan)
		}
		dst = rids
		return nil
	}
	return op, func() {}, nil
}

// hotpathPartitioned measures a range scan across parts hash partitions.
// With several partitions every one contributes rows, so the scatter, the
// k-way merge and the per-partition result plumbing are all on the path;
// with one the scan is a direct call to the lone partition.
func hotpathPartitioned(parts int) func(cfg Config, n int) (func() error, func(), error) {
	return func(cfg Config, n int) (func() error, func(), error) {
		pt, err := partition.New(hermit.PhysicalPointers, "hot", hotpathCols(), 0,
			partition.Options{Partitions: parts})
		if err != nil {
			return nil, nil, err
		}
		pt.SetRouting(engine.RouteStatic)
		for i := 0; i < n; i++ {
			if _, err := pt.Insert([]float64{float64(i), float64(i) * 0.5}); err != nil {
				return nil, nil, err
			}
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 17))
		op := func() error {
			lo := float64(rng.Intn(n - hotpathSpan))
			rids, _, err := pt.RangeQuery(0, lo, lo+hotpathSpan-1)
			if err != nil {
				return err
			}
			if len(rids) != hotpathSpan {
				return fmt.Errorf("partitioned scan matched %d rows, want %d", len(rids), hotpathSpan)
			}
			return nil
		}
		return op, func() {}, nil
	}
}

// setupHotpathDurableInsert measures a WAL-logged single-row insert (frame
// encode, appender hand-off, ticket wait all on the path).
func setupHotpathDurableInsert(cfg Config, n int) (func() error, func(), error) {
	dir, err := os.MkdirTemp(cfg.TmpDir, "hermit-bench-hotpath")
	if err != nil {
		return nil, nil, err
	}
	d, err := engine.OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	if _, err := d.CreateTable("hot", hotpathCols(), 0); err != nil {
		d.Close()
		os.RemoveAll(dir)
		return nil, nil, err
	}
	pk := 0.0
	row := make([]float64, 2)
	op := func() error {
		pk++
		row[0], row[1] = pk, pk*0.5
		_, err := d.Insert("hot", row)
		return err
	}
	teardown := func() {
		d.Close()
		os.RemoveAll(dir)
	}
	return op, teardown, nil
}

// startHotpathWire serves an n-row durable table from an in-process
// hermitd on a loopback socket and dials one client connection to it.
func startHotpathWire(cfg Config, n int) (*client.Conn, func(), error) {
	dir, err := os.MkdirTemp(cfg.TmpDir, "hermit-bench-hotpath")
	if err != nil {
		return nil, nil, err
	}
	d, err := engine.OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	tb, err := d.CreateTable("hot", hotpathCols(), 0)
	if err != nil {
		d.Close()
		os.RemoveAll(dir)
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		if _, err := tb.Insert([]float64{float64(i), float64(i) * 0.5}); err != nil {
			d.Close()
			os.RemoveAll(dir)
			return nil, nil, err
		}
	}
	srv := server.New(d, server.Options{MaxInflight: 4096, QueueDepth: 256, Workers: cfg.Concurrency})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		d.Close()
		os.RemoveAll(dir)
		return nil, nil, err
	}
	conn, err := client.Dial(srv.Addr().String(), client.Options{})
	if err != nil {
		srv.Close()
		d.Close()
		os.RemoveAll(dir)
		return nil, nil, err
	}
	teardown := func() {
		conn.Close()
		srv.Close()
		d.Close()
		os.RemoveAll(dir)
	}
	return conn, teardown, nil
}

// setupHotpathWirePoint measures one pipeline-depth-1 point read through
// hermitd's wire protocol on a loopback socket: request encode, frame
// write, server decode/execute, response encode, client decode.
func setupHotpathWirePoint(cfg Config, n int) (func() error, func(), error) {
	conn, teardown, err := startHotpathWire(cfg, n)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 19))
	op := func() error {
		rows, err := conn.Point("hot", 0, float64(rng.Intn(n)))
		if err != nil {
			return err
		}
		if len(rows) != 1 {
			return fmt.Errorf("wire point read matched %d rows, want 1", len(rows))
		}
		return nil
	}
	return op, teardown, nil
}

// setupHotpathWirePipelined measures one client.Pipeline flush of
// hotpathPipelineDepth point reads on the wire_point fixture: one burst
// of writes, which the server may coalesce into batch executions, then
// every response read in order.
func setupHotpathWirePipelined(cfg Config, n int) (func() error, func(), error) {
	conn, teardown, err := startHotpathWire(cfg, n)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 29))
	p := conn.Pipeline()
	op := func() error {
		for i := 0; i < hotpathPipelineDepth; i++ {
			p.Point("hot", 0, float64(rng.Intn(n)))
		}
		results, err := p.Flush()
		if err != nil {
			return err
		}
		for _, r := range results {
			if r.Err != nil {
				return r.Err
			}
			if len(r.Rows) != 1 {
				return fmt.Errorf("pipelined point read matched %d rows, want 1", len(r.Rows))
			}
		}
		return nil
	}
	return op, teardown, nil
}

// measureHotpathLane drives op from one goroutine for cfg.MeasureFor and
// reports allocs/op and bytes/op from runtime.ReadMemStats deltas (whole-
// process counters, so background work — GC, WAL appender, scatter-gather
// workers — is attributed to the ops that caused it, which is the honest
// accounting for a speed pass).
func measureHotpathLane(cfg Config, name string, procs int, op func() error) (hotpathLane, error) {
	const batch = 64
	for i := 0; i < 2*batch; i++ { // warm caches, pools, and buffer growth
		if err := op(); err != nil {
			return hotpathLane{}, err
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	ops := 0
	for time.Since(start) < cfg.MeasureFor {
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return hotpathLane{}, err
			}
		}
		ops += batch
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return hotpathLane{
		Workload:    name,
		GOMAXPROCS:  procs,
		Ops:         ops,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops),
		OpsPerSec:   float64(ops) / elapsed.Seconds(),
	}, nil
}

// RunHotpath drives the hot-path allocation/latency sweep.
func RunHotpath(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "hotpath", "Hot-path allocs/op and ns/op at GOMAXPROCS 1 vs 4")
	n := cfg.rows(1_000_000)
	fmt.Fprintf(cfg.Out, "rows=%d gomaxprocs=%d cpus=%d lanes=%v\n",
		n, runtime.GOMAXPROCS(0), runtime.NumCPU(), hotpathProcs)
	fmt.Fprintf(cfg.Out, "note: %s\n", hotpathCaveat)

	rep := hotpathReport{
		Experiment: "hotpath",
		Rows:       n,
		Scale:      cfg.Scale,
		Seed:       cfg.Seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Caveat:     hotpathCaveat,
	}

	fmt.Fprintf(cfg.Out, "\n%-20s %6s %10s %12s %12s %12s %14s\n",
		"workload", "procs", "ops", "ns/op", "allocs/op", "B/op", "throughput")
	for _, w := range hotpathWorkloads() {
		op, teardown, err := w.setup(cfg, n)
		if err != nil {
			return fmt.Errorf("hotpath %s: %w", w.name, err)
		}
		for _, procs := range hotpathProcs {
			prev := runtime.GOMAXPROCS(procs)
			lane, err := measureHotpathLane(cfg, w.name, procs, op)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				teardown()
				return fmt.Errorf("hotpath %s@%d: %w", w.name, procs, err)
			}
			if w.name == "wire_pipelined" {
				lane.PipelineDepth = hotpathPipelineDepth
			}
			rep.Lanes = append(rep.Lanes, lane)
			fmt.Fprintf(cfg.Out, "%-20s %6d %10d %12.0f %12.2f %12.1f %14s\n",
				lane.Workload, lane.GOMAXPROCS, lane.Ops, lane.NsPerOp,
				lane.AllocsPerOp, lane.BytesPerOp, fmtKops(lane.OpsPerSec))
		}
		teardown()
	}

	if cfg.JSONDir != "" {
		path := filepath.Join(cfg.JSONDir, "BENCH_hotpath.json")
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "\n[recorded %s]\n", path)
	}
	return nil
}
