package engine

import (
	"cmp"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"hermit/internal/hermit"
	"hermit/internal/pager"
	"hermit/internal/trstree"
)

// DiskTable is the disk-based engine used for the paper's PostgreSQL
// experiments (§7.8): the base table is a slotted-page heap file, host and
// baseline indexes are page-based B+-trees behind a buffer pool, and — as
// in the paper's integration — Hermit's TRS-Tree stays in memory while
// everything it resolves against lives on disk. Physical tuple pointers
// only, matching PostgreSQL.
type DiskTable struct {
	pool  *pager.Pool
	pgr   *pager.Pager
	heap  *pager.HeapFile
	cols  []string
	pkCol int

	secondary map[int]*pager.DiskTree
	hermits   map[int]*DiskHermit
	profile   bool
}

// OpenDiskTable creates a disk table backed by a file in dir, with a buffer
// pool of poolPages frames.
func OpenDiskTable(dir string, cols []string, pkCol int, poolPages int) (*DiskTable, error) {
	if pkCol < 0 || pkCol >= len(cols) {
		return nil, ErrNoSuchColumn
	}
	p, err := pager.Open(filepath.Join(dir, "table.db"))
	if err != nil {
		return nil, err
	}
	pool := pager.NewPool(p, poolPages)
	return &DiskTable{
		pool:      pool,
		pgr:       p,
		heap:      pager.NewHeapFile(pool, len(cols)),
		cols:      append([]string(nil), cols...),
		pkCol:     pkCol,
		secondary: make(map[int]*pager.DiskTree),
		hermits:   make(map[int]*DiskHermit),
	}, nil
}

// Close flushes dirty pages and closes the file. The file is closed even
// when the flush fails (e.g. ErrDirtyPinned from a page still pinned), so
// the descriptor never leaks; both errors are reported.
func (t *DiskTable) Close() error {
	flushErr := t.pool.FlushAll()
	return errors.Join(flushErr, t.pgr.Close())
}

// SetProfile toggles per-phase query timing.
func (t *DiskTable) SetProfile(on bool) { t.profile = on }

// Pool exposes the buffer pool (for I/O statistics).
func (t *DiskTable) Pool() *pager.Pool { return t.pool }

// Len returns the number of live rows.
func (t *DiskTable) Len() int { return t.heap.Len() }

// Insert appends a row, maintaining every index.
func (t *DiskTable) Insert(row []float64) (pager.HeapRID, error) {
	rid, err := t.heap.Insert(row)
	if err != nil {
		return 0, err
	}
	for col, tr := range t.secondary {
		if err := tr.Insert(row[col], uint64(rid)); err != nil {
			return 0, err
		}
	}
	for col, hx := range t.hermits {
		hx.tree.Insert(row[col], row[hx.hostCol], uint64(rid))
	}
	return rid, nil
}

// CreateDiskBTreeIndex bulk-builds a page-based B+-tree index on col.
func (t *DiskTable) CreateDiskBTreeIndex(col int) (*pager.DiskTree, error) {
	if col < 0 || col >= len(t.cols) {
		return nil, ErrNoSuchColumn
	}
	if _, dup := t.secondary[col]; dup {
		return nil, ErrDupIndex
	}
	type entry struct {
		k float64
		v uint64
	}
	var entries []entry
	err := t.heap.Scan(func(rid pager.HeapRID, row []float64) bool {
		entries = append(entries, entry{k: row[col], v: uint64(rid)})
		return true
	})
	if err != nil {
		return nil, err
	}
	// cmp.Compare order (NaN first), the order the disk tree keeps.
	slices.SortFunc(entries, func(a, b entry) int {
		if c := cmp.Compare(a.k, b.k); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	keys := make([]float64, len(entries))
	ids := make([]uint64, len(entries))
	for i, e := range entries {
		keys[i], ids[i] = e.k, e.v
	}
	tr, err := pager.NewDiskTree(t.pool)
	if err != nil {
		return nil, err
	}
	if err := tr.BulkLoad(keys, ids); err != nil {
		return nil, err
	}
	t.secondary[col] = tr
	return tr, nil
}

// DiskHermit is a Hermit index whose host index and base table live on
// disk while the TRS-Tree is memory-resident.
type DiskHermit struct {
	table     *DiskTable
	tree      *trstree.Tree
	host      *pager.DiskTree
	targetCol int
	hostCol   int
}

// Tree exposes the in-memory TRS-Tree.
func (hx *DiskHermit) Tree() *trstree.Tree { return hx.tree }

// CreateDiskHermitIndex builds a Hermit index on col using the disk B+-tree
// on hostCol as host.
func (t *DiskTable) CreateDiskHermitIndex(col, hostCol int, params trstree.Params) (*DiskHermit, error) {
	if col < 0 || col >= len(t.cols) || hostCol < 0 || hostCol >= len(t.cols) {
		return nil, ErrNoSuchColumn
	}
	host, ok := t.secondary[hostCol]
	if !ok {
		return nil, ErrNoHostIndex
	}
	if _, dup := t.hermits[col]; dup {
		return nil, ErrDupIndex
	}
	var pairs []trstree.Pair
	err := t.heap.ScanPairs(col, hostCol, func(rid pager.HeapRID, m, n float64) bool {
		pairs = append(pairs, trstree.Pair{M: m, N: n, ID: uint64(rid)})
		return true
	})
	if err != nil {
		return nil, err
	}
	lo, hi, ok, err := t.heap.ColumnBounds(col)
	if err != nil {
		return nil, err
	}
	if !ok || lo > hi {
		// Empty table, or only NaN targets: any range works; inserts
		// extend it through the edge leaves.
		lo, hi = 0, 1
	}
	tree, err := trstree.Build(pairs, lo, hi, params)
	if err != nil {
		return nil, err
	}
	hx := &DiskHermit{table: t, tree: tree, host: host, targetCol: col, hostCol: hostCol}
	t.hermits[col] = hx
	return hx, nil
}

// RangeQuery answers lo <= col <= hi through the best index. The breakdown
// uses the Fig. 24b categories: TRS-Tree, (host) index, validation (base
// table); the baseline spends everything in index + base table.
func (t *DiskTable) RangeQuery(col int, lo, hi float64) ([]pager.HeapRID, QueryStats, error) {
	if col < 0 || col >= len(t.cols) {
		return nil, QueryStats{}, ErrNoSuchColumn
	}
	if !(lo <= hi) {
		// An inverted predicate, or one with a NaN bound, matches no row.
		return nil, QueryStats{}, nil
	}
	if hx, ok := t.hermits[col]; ok {
		return hx.lookup(lo, hi)
	}
	if tr, ok := t.secondary[col]; ok {
		return t.baselineDiskRange(tr, lo, hi)
	}
	// Unindexed fallback: heap scan.
	var rids []pager.HeapRID
	st := QueryStats{Kind: KindNone}
	err := t.heap.Scan(func(rid pager.HeapRID, row []float64) bool {
		if row[col] >= lo && row[col] <= hi {
			rids = append(rids, rid)
		}
		return true
	})
	st.Rows, st.Candidates = len(rids), len(rids)
	return rids, st, err
}

func (hx *DiskHermit) lookup(lo, hi float64) ([]pager.HeapRID, QueryStats, error) {
	t := hx.table
	st := QueryStats{Kind: KindHermit}
	var t0 time.Time
	if t.profile {
		t0 = time.Now()
	}
	tres := hx.tree.Lookup(lo, hi)
	if t.profile {
		st.Breakdown[hermit.PhaseTRSTree] += time.Since(t0)
		t0 = time.Now()
	}
	ids := tres.IDs
	for _, r := range tres.Ranges {
		err := hx.host.Scan(r.Lo, r.Hi, func(_ float64, id uint64) bool {
			ids = append(ids, id)
			return true
		})
		if err != nil {
			return nil, st, err
		}
	}
	if t.profile {
		st.Breakdown[hermit.PhaseHostIndex] += time.Since(t0)
		t0 = time.Now()
	}
	slices.Sort(ids)
	var out []pager.HeapRID
	var prev uint64
	for i, id := range ids {
		if i > 0 && id == prev {
			continue
		}
		prev = id
		rid := pager.HeapRID(id)
		st.Candidates++
		m, err := t.heap.Value(rid, hx.targetCol)
		if err != nil {
			continue
		}
		if m >= lo && m <= hi {
			out = append(out, rid)
		}
	}
	if t.profile {
		st.Breakdown[hermit.PhaseBaseTable] += time.Since(t0)
	}
	st.Rows = len(out)
	return out, st, nil
}

func (t *DiskTable) baselineDiskRange(tr *pager.DiskTree, lo, hi float64) ([]pager.HeapRID, QueryStats, error) {
	st := QueryStats{Kind: KindBTree}
	var t0 time.Time
	if t.profile {
		t0 = time.Now()
	}
	var rids []pager.HeapRID
	err := tr.Scan(lo, hi, func(_ float64, id uint64) bool {
		rids = append(rids, pager.HeapRID(id))
		return true
	})
	if err != nil {
		return nil, st, err
	}
	if t.profile {
		st.Breakdown[hermit.PhaseHostIndex] += time.Since(t0)
		t0 = time.Now()
	}
	out := rids[:0]
	for _, rid := range rids {
		if _, err := t.heap.Value(rid, t.pkCol); err == nil {
			out = append(out, rid)
		}
	}
	if t.profile {
		st.Breakdown[hermit.PhaseBaseTable] += time.Since(t0)
	}
	st.Rows, st.Candidates = len(out), len(out)
	return out, st, nil
}

// DiskMemory reports the on-disk/and in-memory footprints: heap pages,
// index pages, and the memory-resident TRS-Trees.
func (t *DiskTable) DiskMemory() (heapBytes, indexBytes, trsBytes uint64) {
	heapBytes = t.heap.SizeBytes()
	for _, tr := range t.secondary {
		indexBytes += tr.SizeBytes()
	}
	for _, hx := range t.hermits {
		trsBytes += hx.tree.SizeBytes()
	}
	return
}

// String describes the table.
func (t *DiskTable) String() string {
	return fmt.Sprintf("disktable(cols=%d rows=%d pool=%d)", len(t.cols), t.Len(), t.pool.Capacity())
}
