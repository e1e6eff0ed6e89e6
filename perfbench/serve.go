package main

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hermit/internal/client"
	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/partition"
	"hermit/internal/repl"
	"hermit/internal/server"
)

// The served configuration: exactly what cmd/hermitd builds with its
// default flags. The WAL policy is the zero DurableOptions value, SyncNever.
var (
	durableOpts = engine.DurableOptions{ReplRetainWALSegments: 4}
	serverOpts  = server.Options{MaxInflight: 256, QueueDepth: 128, DrainTimeout: 5 * time.Second}
)

const serverConfig = "physical pointers, wal=SyncNever, repl-retain=4, async repl.Leader, max-inflight=256, queue-depth=128, workers=GOMAXPROCS, loopback"

// loadBatch is the number of rows per atomic insert batch during load.
const loadBatch = 1000

// served is one hermitd-equivalent server in this process plus the
// benchmark's client connections to it.
type served struct {
	dir   string
	d     *engine.DurableDB
	srv   *server.Server
	conns [conns]*client.Conn
}

func startServed(dir string) (*served, error) {
	d, err := engine.OpenDurableOptions(dir, hermit.PhysicalPointers, durableOpts)
	if err != nil {
		return nil, err
	}
	leader, err := repl.NewLeader(d, repl.LeaderOptions{AckMode: repl.AckAsync})
	if err != nil {
		d.Close()
		return nil, err
	}
	opts := serverOpts
	opts.Leader = leader
	sv := &served{dir: dir, d: d, srv: server.New(d, opts)}
	if err := sv.srv.Start("127.0.0.1:0"); err != nil {
		d.Close()
		return nil, err
	}
	for c := range sv.conns {
		if sv.conns[c], err = client.Dial(sv.srv.Addr().String(), client.Options{}); err != nil {
			sv.close()
			return nil, err
		}
	}
	return sv, nil
}

// close stops the server and closes the database, leaving its files.
func (sv *served) close() error {
	for _, c := range sv.conns {
		if c != nil {
			c.Close()
		}
	}
	err := sv.srv.Close()
	if cerr := sv.d.Close(); err == nil {
		err = cerr
	}
	return err
}

// setup starts a server in a fresh dir and loads the workload the way a
// hermitd user does: DDL and atomic insert batches over the wire (each
// connection loads the keys it owns), then index builds, then the first
// checkpoint. It returns the server and the time it took.
func setup(s *spec, dir string) (*served, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	sv, err := startServed(dir)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*served, time.Duration, error) {
		sv.close()
		return nil, 0, err
	}
	if err := sv.conns[0].CreateTable(s.table, s.cols, s.pkCol, s.parts); err != nil {
		return fail(fmt.Errorf("create table: %w", err))
	}
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = loadOwned(s, sv.conns[c], c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fail(fmt.Errorf("load: %w", err))
		}
	}
	for _, col := range s.btreeCols {
		if err := sv.conns[0].CreateBTreeIndex(s.table, col); err != nil {
			return fail(fmt.Errorf("create btree on %d: %w", col, err))
		}
	}
	for _, h := range s.hermits {
		if err := sv.conns[0].CreateHermitIndex(s.table, h.col, h.host); err != nil {
			return fail(fmt.Errorf("create hermit on %d: %w", h.col, err))
		}
	}
	if err := sv.d.Checkpoint(); err != nil {
		return fail(fmt.Errorf("first checkpoint: %w", err))
	}
	return sv, time.Since(t0), nil
}

func loadOwned(s *spec, conn *client.Conn, c int) error {
	ops := make([]client.Op, 0, loadBatch)
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		res, err := conn.Batch(ops)
		if err != nil {
			return err
		}
		for _, r := range res {
			if r.Err != nil {
				return r.Err
			}
		}
		ops = ops[:0]
		return nil
	}
	for i := c; i < s.rows(); i += conns {
		ops = append(ops, client.Op{Kind: client.OpInsert, Table: s.table, Row: s.row(i)})
		if len(ops) == loadBatch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// handles are the in-process views of the served table that the traced
// rungs and the structural counters read: the partition wrapper (nil for
// a plain table) and the per-partition engine tables.
type handles struct {
	pt    *partition.Table
	parts []*engine.Table
}

func openHandles(d *engine.DurableDB, s *spec) (*handles, error) {
	h := &handles{}
	if s.parts == 0 {
		tb, err := d.Table(s.table)
		if err != nil {
			return nil, err
		}
		h.parts = []*engine.Table{tb}
		return h, nil
	}
	pt, err := partition.OpenDurable(d, s.table, partition.Options{})
	if err != nil {
		return nil, err
	}
	h.pt = pt
	for i := 0; i < pt.Partitions(); i++ {
		h.parts = append(h.parts, pt.Part(i))
	}
	return h, nil
}

// live counts the visible rows across partitions.
func (h *handles) live() int {
	n := 0
	for _, p := range h.parts {
		rids, _, err := p.RangeQuery(p.PKCol(), math.Inf(-1), math.Inf(1))
		if err == nil {
			n += len(rids)
		}
	}
	return n
}

// scanAll returns every visible row of the table.
func (h *handles) scanAll() ([][]float64, error) {
	var out [][]float64
	for _, p := range h.parts {
		rids, _, err := p.RangeQuery(p.PKCol(), math.Inf(-1), math.Inf(1))
		if err != nil {
			return nil, err
		}
		rows, err := p.FetchRows(rids, nil)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			out = append(out, append([]float64(nil), r...))
		}
	}
	return out, nil
}

// shape is the structural state of the served indexes: the counters two
// runs at one seed must reproduce exactly (after setup).
type shape struct {
	rows          int
	leaves        int
	height        int
	outliers      int
	trsBytes      uint64
	pendingReorg  int
	btreeBytes    uint64
	indexBytes    uint64 // ExistingBytes + NewBytes of every partition
	blocks        int
	blockEntries  uint64
	blockBytes    int64
	diskBytes     int64
	walBytes      int64
	manifestBytes int64
}

func measureShape(sv *served, s *spec, h *handles) (shape, error) {
	var sh shape
	sh.rows = h.live()
	for _, p := range h.parts {
		m := p.Memory()
		sh.indexBytes += m.ExistingBytes + m.NewBytes
		for _, hd := range s.hermits {
			hx := p.Hermit(hd.col)
			if hx == nil {
				return sh, fmt.Errorf("no hermit index on column %d", hd.col)
			}
			st := hx.Tree().Stats()
			sh.leaves += st.Leaves
			sh.outliers += st.Outliers
			sh.trsBytes += st.SizeBytes
			sh.height = max(sh.height, st.Height)
			sh.pendingReorg += hx.Tree().PendingReorg()
		}
		for _, col := range s.btreeCols {
			if bt := p.Secondary(col); bt != nil {
				sh.btreeBytes += bt.SizeBytes()
			}
		}
	}
	st := sv.d.StorageStats()
	sh.blocks, sh.blockEntries, sh.blockBytes = st.Blocks, st.BlockEntries, st.BlockBytes
	err := filepath.WalkDir(sv.dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		sh.diskBytes += info.Size()
		switch filepath.Ext(path) {
		case ".log":
			sh.walBytes += info.Size()
		case ".json":
			sh.manifestBytes += info.Size()
		}
		return nil
	})
	return sh, err
}

// heapInuse returns the Go heap in use after a forced collection.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}
