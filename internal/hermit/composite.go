package hermit

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"hermit/internal/btree"
	"hermit/internal/storage"
	"hermit/internal/trstree"
)

// CompositeIndex is Hermit's multi-column form (§3): when queries constrain
// columns (A, M) together and a complete index already exists on (A, N)
// with N correlated to M, Hermit answers (A, M) predicates through the
// (A, N) host index plus a TRS-Tree on M→N. This is exactly the paper's
// running example: host (TIME, DJ), new index (TIME, SP).
//
// The TRS-Tree is the same single-column structure — only the host probe
// and validation change — so maintenance and reorganization are inherited.
type CompositeIndex struct {
	cfg   CompositeConfig
	table *storage.Table
	tree  *trstree.Tree
	host  *btree.CompositeTree

	candidates atomic.Uint64
	qualified  atomic.Uint64
}

// CompositeConfig describes a composite Hermit index.
type CompositeConfig struct {
	// ACol is the leading column shared with the host index.
	ACol int
	// TargetCol is M, the correlated column the index is requested on.
	TargetCol int
	// HostCol is N, the correlated column of the existing (A, N) index.
	HostCol int
	// Params configures the TRS-Tree.
	Params trstree.Params
	// Profile enables per-phase timing.
	Profile bool
}

// NewComposite builds the composite Hermit index from the table and the
// existing (A, N) host index. Physical tuple pointers are assumed: the host
// stores RIDs (the composite form with logical pointers only adds the same
// primary hop as the single-column index and is omitted for clarity).
func NewComposite(table *storage.Table, host *btree.CompositeTree, cfg CompositeConfig) (*CompositeIndex, error) {
	if table == nil {
		return nil, ErrNilTable
	}
	if host == nil {
		return nil, ErrNilHostIndex
	}
	w := table.Width()
	if cfg.ACol < 0 || cfg.ACol >= w || cfg.TargetCol < 0 || cfg.TargetCol >= w ||
		cfg.HostCol < 0 || cfg.HostCol >= w {
		return nil, fmt.Errorf("hermit: composite column out of range")
	}
	x := &CompositeIndex{cfg: cfg, table: table, host: host}
	tree, err := buildTree(x.source(), cfg.Params)
	if err != nil {
		return nil, err
	}
	x.tree = tree
	return x, nil
}

// Tree exposes the TRS-Tree for statistics and maintenance.
func (x *CompositeIndex) Tree() *trstree.Tree { return x.tree }

// SizeBytes returns the index's own footprint (the TRS-Tree only; the host
// belongs to the (A, N) pair).
func (x *CompositeIndex) SizeBytes() uint64 { return x.tree.SizeBytes() }

// Lookup answers the conjunctive predicate
//
//	aLo <= A <= aHi AND mLo <= M <= mHi
//
// following §3: the M-range is translated to N-ranges by the TRS-Tree, the
// (A, N) host index is probed with both ranges, outlier identifiers are
// unioned in, and base-table validation restores exactness on both columns.
func (x *CompositeIndex) Lookup(aLo, aHi, mLo, mHi float64) Result {
	var res Result
	var t0 time.Time
	if x.cfg.Profile {
		t0 = time.Now()
	}
	tres := x.tree.Lookup(mLo, mHi)
	if x.cfg.Profile {
		res.Breakdown[PhaseTRSTree] += time.Since(t0)
		t0 = time.Now()
	}
	ids := tres.IDs // outliers: validated on both predicates below
	for _, r := range tres.Ranges {
		x.host.Scan(aLo, aHi, r.Lo, r.Hi, func(_, _ float64, id uint64) bool {
			ids = append(ids, id)
			return true
		})
	}
	if x.cfg.Profile {
		res.Breakdown[PhaseHostIndex] += time.Since(t0)
		t0 = time.Now()
	}
	slices.Sort(ids)
	out := make([]storage.RID, 0, len(ids))
	var prev uint64
	row := make([]float64, 0, x.table.Width())
	for i, id := range ids {
		if i > 0 && id == prev {
			continue
		}
		prev = id
		rid := storage.RID(id)
		res.Candidates++
		var err error
		row, err = x.table.Get(rid, row)
		if err != nil {
			continue
		}
		if row[x.cfg.ACol] >= aLo && row[x.cfg.ACol] <= aHi &&
			row[x.cfg.TargetCol] >= mLo && row[x.cfg.TargetCol] <= mHi {
			out = append(out, rid)
			res.Qualified++
		}
	}
	if x.cfg.Profile {
		res.Breakdown[PhaseBaseTable] += time.Since(t0)
	}
	res.RIDs = out
	x.candidates.Add(uint64(res.Candidates))
	x.qualified.Add(uint64(res.Qualified))
	return res
}

// LifetimeFalsePositiveRatio aggregates over every lookup served.
func (x *CompositeIndex) LifetimeFalsePositiveRatio() float64 {
	c := x.candidates.Load()
	if c == 0 {
		return 0
	}
	return 1 - float64(x.qualified.Load())/float64(c)
}

// Insert maintains the index for a new tuple.
func (x *CompositeIndex) Insert(rid storage.RID, m, n float64) {
	x.tree.Insert(m, n, uint64(rid))
}

// Delete maintains the index for a removed tuple.
func (x *CompositeIndex) Delete(rid storage.RID, m, n float64) {
	x.tree.Delete(m, n, uint64(rid))
}

// Source returns the reorganization data source for the index.
func (x *CompositeIndex) Source() trstree.DataSource { return x.source() }

func (x *CompositeIndex) source() tableSource {
	return tableSource{x.table, x.cfg.TargetCol, x.cfg.HostCol, func(rid storage.RID) uint64 { return uint64(rid) }}
}
