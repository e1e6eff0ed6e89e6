package trstree

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Snapshot format: the paper (§6) requires the RDBMS to periodically
// persist TRS-Trees for fault tolerance (checkpointing for the in-memory
// engine, node pages for the disk engine). The snapshot is a little-endian
// pre-order dump of the tree:
//
//	magic "TRST", version uint16, Params, root bounds
//	per node: flags byte (leaf | leftEdge | rightEdge), lo, hi
//	  leaf:     beta, alpha, eps, count, deleted, n outliers, entries
//	            (entries sorted by (m, id); Load sorts older unsorted ones)
//	  internal: child count, then children pre-order
//
// Snapshots capture a consistent point-in-time image (the read latch is
// held while encoding); writes after the snapshot are recovered by the
// engine's WAL replay, exactly as §6 sketches.

const (
	snapshotMagic   = "TRST"
	snapshotVersion = 1

	flagLeaf      = 1
	flagLeftEdge  = 2
	flagRightEdge = 4
)

// Errors returned by Load.
var (
	ErrBadSnapshot     = errors.New("trstree: malformed snapshot")
	ErrSnapshotVersion = errors.New("trstree: unsupported snapshot version")
)

// Save writes a point-in-time snapshot of the tree to w.
func (t *Tree) Save(w io.Writer) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := writeAll(bw,
		uint16(snapshotVersion),
		uint32(t.params.NodeFanout),
		uint32(t.params.MaxHeight),
		t.params.OutlierRatio,
		t.params.ErrorBound,
		t.params.SampleRate,
		boolByte(t.params.UnionRanges),
		uint32(t.params.MinLeafPairs),
	); err != nil {
		return err
	}
	if err := writeNodeSnapshot(bw, t.root); err != nil {
		return err
	}
	return bw.Flush()
}

func writeNodeSnapshot(w io.Writer, n *node) error {
	var flags byte
	if n.isLeaf() {
		flags |= flagLeaf
	}
	if n.leftEdge {
		flags |= flagLeftEdge
	}
	if n.rightEdge {
		flags |= flagRightEdge
	}
	if err := writeAll(w, flags, n.lo, n.hi); err != nil {
		return err
	}
	if n.isLeaf() {
		if err := writeAll(w,
			n.model.Beta, n.model.Alpha, n.eps,
			uint64(n.count), uint64(n.deleted), uint64(len(n.outliers)),
		); err != nil {
			return err
		}
		for _, e := range n.outliers {
			if err := writeAll(w, e.m, e.id); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeAll(w, uint32(len(n.children))); err != nil {
		return err
	}
	for _, c := range n.children {
		if err := writeNodeSnapshot(w, c); err != nil {
			return err
		}
	}
	return nil
}

// Load reconstructs a tree from a snapshot produced by Save.
func Load(r io.Reader) (*Tree, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, magic)
	}
	var version uint16
	if err := readAll(br, &version); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("%w: version %d", ErrSnapshotVersion, version)
	}
	var p Params
	var fanout, maxHeight, minLeaf uint32
	var union byte
	if err := readAll(br, &fanout, &maxHeight, &p.OutlierRatio, &p.ErrorBound,
		&p.SampleRate, &union, &minLeaf); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	p.NodeFanout = int(fanout)
	p.MaxHeight = int(maxHeight)
	p.UnionRanges = union != 0
	p.MinLeafPairs = int(minLeaf)
	root, err := readNodeSnapshot(br, 0)
	if err != nil {
		return nil, err
	}
	return &Tree{params: p.sanitize(), root: root}, nil
}

// maxSnapshotDepth bounds recursion so corrupt child counts cannot blow
// the stack.
const maxSnapshotDepth = 64

func readNodeSnapshot(r io.Reader, depth int) (*node, error) {
	if depth > maxSnapshotDepth {
		return nil, fmt.Errorf("%w: nesting too deep", ErrBadSnapshot)
	}
	var flags byte
	n := &node{}
	if err := readAll(r, &flags, &n.lo, &n.hi); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if math.IsNaN(n.lo) || math.IsNaN(n.hi) {
		return nil, fmt.Errorf("%w: NaN bounds", ErrBadSnapshot)
	}
	n.leftEdge = flags&flagLeftEdge != 0
	n.rightEdge = flags&flagRightEdge != 0
	if flags&flagLeaf != 0 {
		var count, deleted, outliers uint64
		if err := readAll(r, &n.model.Beta, &n.model.Alpha, &n.eps,
			&count, &deleted, &outliers); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		const maxOutliers = 1 << 32
		if outliers > maxOutliers {
			return nil, fmt.Errorf("%w: outlier count %d", ErrBadSnapshot, outliers)
		}
		n.count = int(count)
		n.deleted = int(deleted)
		if outliers > 0 {
			n.outliers = make([]outlierEntry, outliers)
			for i := range n.outliers {
				if err := readAll(r, &n.outliers[i].m, &n.outliers[i].id); err != nil {
					return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
				}
			}
			// Snapshots written before buffers were kept sorted hold
			// them in insertion order; restore the (m, id) order lookups
			// rely on. Sorting an already-sorted buffer is one pass.
			slices.SortFunc(n.outliers, compareOutlier)
		}
		return n, nil
	}
	var children uint32
	if err := readAll(r, &children); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if children < 2 || children > 1<<16 {
		return nil, fmt.Errorf("%w: child count %d", ErrBadSnapshot, children)
	}
	n.children = make([]*node, children)
	for i := range n.children {
		c, err := readNodeSnapshot(r, depth+1)
		if err != nil {
			return nil, err
		}
		n.children[i] = c
	}
	return n, nil
}

// SaveFile snapshots the tree to path atomically (write temp + rename).
func (t *Tree) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := t.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reconstructs a tree from a snapshot file.
func LoadFile(path string) (*Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// writeAll writes each value in little-endian order.
func writeAll(w io.Writer, vals ...any) error {
	for _, v := range vals {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

// readAll reads each pointer target in little-endian order.
func readAll(r io.Reader, vals ...any) error {
	for _, v := range vals {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}
