package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hermit/internal/engine"
	"hermit/internal/storage"
)

// The traced run records spans from the benchmark's own code, around
// calls into each layer's public functions. Every wire call is a span; a
// sampled read is then replayed down the rung ladder (partition → engine
// → hermit → trstree / btree), each rung a child span of the rung above,
// so a layer's self time is its span minus its children.

type spanName uint8

const (
	spWire spanName = iota
	spPartRange
	spPartFetch
	spEngRange
	spEngPoint
	spEngFetch
	spHermit
	spTRS
	spHostScan
	spBTreeScan
	spDurInsert
	spDurUpdate
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"wire", "partition.range", "partition.fetch", "engine.range", "engine.point", "engine.fetch",
	"hermit.lookup", "trstree.lookup", "btree.host_scan", "btree.range_scan",
	"durable.insert", "durable.update",
}

// span is one timed call. Spans of one request share req; parent is the
// id of the rung above (0 for a root).
type span struct {
	id, parent uint64
	req        uint64
	name       spanName
	cls        class
	start, end int64 // ns after the trace epoch
}

// numPaths is the number of engine access paths (engine.AccessPath).
const numPaths = 6

// counters are the per-layer work counts taken at the same boundaries as
// the spans.
type counters struct {
	paths                        [numPaths]int64
	probes, candidates, rows     int64 // engine range and point rungs
	hermitCand, hermitQual       int64
	trsLookups, trsRanges, trsID int64
	trsLeaves, hostEntries       int64
}

// tracer belongs to one goroutine: a connection or the checkpointer.
type tracer struct {
	id    uint64
	epoch time.Time
	spans []span
	nreq  uint64
	cnt   counters
	rids  []storage.RID
	rows  [][]float64
}

func (t *tracer) newReq() uint64 { t.nreq++; return t.id<<40 | t.nreq }

// open starts a span and returns its index.
func (t *tracer) open(name spanName, cls class, req, parent uint64) int {
	t.spans = append(t.spans, span{
		id: t.id<<40 | uint64(len(t.spans)+1), parent: parent, req: req, name: name, cls: cls,
		start: int64(time.Since(t.epoch)),
	})
	return len(t.spans) - 1
}

func (t *tracer) close(i int) uint64 {
	t.spans[i].end = int64(time.Since(t.epoch))
	return t.spans[i].id
}

func (t *tracer) closeAt(i int, at time.Time) { t.spans[i].end = int64(at.Sub(t.epoch)) }

// job is a sampled read whose rungs below the engine wait for a moment
// when no mutation is in flight (those rungs take no engine latches).
type job struct {
	o    *op
	req  uint64
	engs []uint64 // engine rung span per partition (0: that rung took another path)
}

// reservedBase starts the key range the durable rungs insert on; its
// rows have colC far outside the range predicates, so they never show
// in a read's result.
const reservedBase = 1 << 40

// tracing is one traced phase.
type tracing struct {
	gate    sync.RWMutex // writers hold it shared; rungs below the engine take it exclusively
	tracers [conns + 1]*tracer
	mu      sync.Mutex
	jobs    []job
	wal     []walSample
	reserve [conns]float64
	// rungMuts counts the durable rungs' own mutations, which the WAL
	// samples charge alongside the stream's.
	rungMuts atomic.Int64
}

// walSample is the WAL's size at a moment with no mutation in flight.
type walSample struct {
	seg  uint64
	size int64
	muts int64
}

func newTracing() *tracing {
	tr := &tracing{}
	epoch := time.Now()
	for i := range tr.tracers {
		tr.tracers[i] = &tracer{id: uint64(i + 1), epoch: epoch}
	}
	for c := range tr.reserve {
		tr.reserve[c] = reservedBase + float64(c)
	}
	return tr
}

// pause holds every writer off, samples the WAL and runs the deferred rungs.
func (tr *tracing) pause(r *runner) {
	tr.gate.Lock()
	defer tr.gate.Unlock()
	tr.sampleWAL(r)
	tr.mu.Lock()
	jobs := tr.jobs
	tr.jobs = nil
	tr.mu.Unlock()
	t := tr.tracers[conns]
	for _, j := range jobs {
		t.below(r, j)
	}
}

func (tr *tracing) sampleWAL(r *runner) {
	seg, _, _ := r.sv.d.WALPosition()
	tr.wal = append(tr.wal, walSample{seg: seg, size: r.sv.d.WALSize(), muts: r.muts.Load() + tr.rungMuts.Load()})
}

// replay runs a sampled read's rungs: partition and engine inline, and
// the rungs below the engine inline too on a read-only workload, or
// deferred to the next pause while writes are running.
func (tr *tracing) replay(r *runner, c int, o *op, wire int) {
	t := tr.tracers[c]
	j := t.engineRungs(r, o, t.spans[wire].id, t.spans[wire].req)
	if r.s.ingest == nil {
		t.below(r, j)
		return
	}
	tr.mu.Lock()
	tr.jobs = append(tr.jobs, j)
	tr.mu.Unlock()
}

// engineRungs replays the predicate through partition.Table (on a
// partitioned table) and then through each partition's engine.Table.
func (t *tracer) engineRungs(r *runner, o *op, wire, req uint64) job {
	h := r.h
	j := job{o: o, req: req, engs: make([]uint64, len(h.parts))}
	rangeParent, fetchParent := wire, wire
	parts := h.parts
	owner := -1
	if o.cls == pkPoint && h.pt != nil {
		owner = engine.PartitionOf(o.lo, len(parts))
	}
	if h.pt != nil {
		i := t.open(spPartRange, o.cls, j.req, wire)
		rids, _, err := h.pt.RangeQuery(o.col, o.lo, o.hi)
		rangeParent = t.close(i)
		i = t.open(spPartFetch, o.cls, j.req, wire)
		for _, rid := range rids {
			if _, err = h.pt.FetchRow(rid); err != nil {
				break
			}
		}
		fetchParent = t.close(i)
	}
	for pi, p := range parts {
		if owner >= 0 && pi != owner {
			continue
		}
		var rids []storage.RID
		var qs engine.QueryStats
		var err error
		var i int
		if o.cls == pkPoint {
			i = t.open(spEngPoint, o.cls, j.req, rangeParent)
			rids, qs, err = p.PointQueryInto(o.col, o.lo, t.rids)
		} else {
			i = t.open(spEngRange, o.cls, j.req, rangeParent)
			rids, qs, err = p.RangeQueryInto(o.col, o.lo, o.hi, t.rids)
		}
		id := t.close(i)
		if err != nil {
			continue
		}
		t.rids = rids
		t.cnt.probes++
		t.cnt.paths[qs.Path]++
		t.cnt.candidates += int64(qs.Candidates)
		t.cnt.rows += int64(qs.Rows)
		if (o.cls == hermitRange && qs.Path == engine.PathHermit) || (o.cls == btreeRange && qs.Path == engine.PathBTree) {
			j.engs[pi] = id
		}
		i = t.open(spEngFetch, o.cls, j.req, fetchParent)
		t.rows, _ = p.FetchRows(rids, t.rows)
		t.close(i)
	}
	return j
}

// below replays a Hermit range through hermit.Index.Lookup, then its two
// halves, trstree.Tree.Lookup and the host btree.Tree.Scan over the
// ranges the TRS-Tree returned; a B+-tree range through btree.Tree.Scan.
func (t *tracer) below(r *runner, j job) {
	o := j.o
	for pi, p := range r.h.parts {
		switch o.cls {
		case hermitRange:
			hx := p.Hermit(o.col)
			host := p.Secondary(r.s.hostOf(o.col))
			if hx == nil || host == nil {
				continue
			}
			i := t.open(spHermit, o.cls, j.req, j.engs[pi])
			res := hx.Lookup(o.lo, o.hi)
			hid := t.close(i)
			t.cnt.hermitCand += int64(res.Candidates)
			t.cnt.hermitQual += int64(res.Qualified)
			i = t.open(spTRS, o.cls, j.req, hid)
			tres := hx.Tree().Lookup(o.lo, o.hi)
			t.close(i)
			t.cnt.trsLookups++
			t.cnt.trsRanges += int64(len(tres.Ranges))
			t.cnt.trsID += int64(len(tres.IDs))
			t.cnt.trsLeaves += int64(tres.LeavesVisited)
			i = t.open(spHostScan, o.cls, j.req, hid)
			n := 0
			for _, rg := range tres.Ranges {
				host.Scan(rg.Lo, rg.Hi, func(float64, uint64) bool { n++; return true })
			}
			t.close(i)
			t.cnt.hostEntries += int64(n)
		case btreeRange:
			bt := p.Secondary(o.col)
			if bt == nil {
				continue
			}
			i := t.open(spBTreeScan, o.cls, j.req, j.engs[pi])
			bt.Scan(o.lo, o.hi, func(float64, uint64) bool { return true })
			t.close(i)
		}
	}
}

// durableRung times an embedded DurableDB insert and update on the
// connection's reserved keys. The caller holds the write gate shared.
func (tr *tracing) durableRung(r *runner, c int, rec *connRec) {
	t := tr.tracers[c]
	pk := tr.reserve[c]
	tr.reserve[c] += conns
	row := []float64{pk, 2*(5000+pk-reservedBase) + 100, 5000 + pk - reservedBase, 0}
	i := t.open(spDurInsert, insertOp, t.newReq(), 0)
	_, err := r.sv.d.Insert(r.s.table, row)
	t.close(i)
	if err != nil {
		rec.failed++
		return
	}
	rec.reserved++
	tr.rungMuts.Add(1)
	i = t.open(spDurUpdate, updateOp, t.newReq(), 0)
	err = r.sv.d.UpdateColumn(r.s.table, pk, 2, row[2]+1000)
	t.close(i)
	if err != nil {
		rec.failed++
		return
	}
	tr.rungMuts.Add(1)
}

// hostOf returns the host column of the Hermit index on col.
func (s *spec) hostOf(col int) int {
	for _, h := range s.hermits {
		if h.col == col {
			return h.host
		}
	}
	return -1
}

// allSpans merges every tracer's spans.
func (tr *tracing) allSpans() []span {
	var out []span
	for _, t := range tr.tracers {
		out = append(out, t.spans...)
	}
	return out
}

func (tr *tracing) counters() counters {
	var c counters
	for _, t := range tr.tracers {
		for i := range c.paths {
			c.paths[i] += t.cnt.paths[i]
		}
		c.probes += t.cnt.probes
		c.candidates += t.cnt.candidates
		c.rows += t.cnt.rows
		c.hermitCand += t.cnt.hermitCand
		c.hermitQual += t.cnt.hermitQual
		c.trsLookups += t.cnt.trsLookups
		c.trsRanges += t.cnt.trsRanges
		c.trsID += t.cnt.trsID
		c.trsLeaves += t.cnt.trsLeaves
		c.hostEntries += t.cnt.hostEntries
	}
	return c
}

// spanStats gives each span's duration and self time (duration minus
// the durations of its child spans), grouped by span name and class.
type spanStats struct {
	dur, self [numSpanNames][numClasses][]float64
}

func computeSpanStats(spans []span) *spanStats {
	child := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		if s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	st := &spanStats{}
	for _, s := range spans {
		d := float64(s.end-s.start) / 1e3
		st.dur[s.name][s.cls] = append(st.dur[s.name][s.cls], d)
		if c, ok := child[s.id]; ok {
			st.self[s.name][s.cls] = append(st.self[s.name][s.cls], d-float64(c)/1e3)
		}
	}
	return st
}

// median of the durations (self: of the self times of spans that have
// children) of a span name over the given classes, in µs; ok is false when
// no such span ran, because the workload's path never enters that layer.
func (st *spanStats) median(self bool, name spanName, classes ...class) (v float64, ok bool) {
	var vs []float64
	for _, c := range classes {
		if self {
			vs = append(vs, st.self[name][c]...)
		} else {
			vs = append(vs, st.dur[name][c]...)
		}
	}
	return medianF(vs), len(vs) > 0
}

func (st *spanStats) count(name spanName) int {
	n := 0
	for _, v := range st.dur[name] {
		n += len(v)
	}
	return n
}

// writeSpans writes the spans as tab-separated lines: id, parent, req,
// name, class, start ns, end ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tclass\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%x\t%x\t%x\t%s\t%s\t%d\t%d\n", s.id, s.parent, s.req, spanNames[s.name], s.cls, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
