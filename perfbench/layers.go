package main

import (
	"fmt"
	"io"

	"hermit/internal/engine"
)

// layerSpecific are the per-layer times that only some workloads have: a
// layer the workload's path never enters (partition on a plain table,
// the durable rungs and checkpoints on a read-only workload) records no
// span. They are printed where they apply and left out of the JSON line,
// whose metrics every workload must report.
var layerSpecific = []string{
	"wire.point_overhead_us", "wire.write_overhead_us",
	"partition.range_us", "partition.fanout_overhead_us", "partition.fetch_us",
	"engine.range_us.btree", "engine.point_us", "btree.range_scan_us",
	"durable.insert_us", "durable.update_us",
	"durable.checkpoint_p50_ms", "durable.checkpoint_max_ms", "durable.stall_p99_us",
	"loadgen.lag_p99_us",
}

// addIf adds a metric only when it was measured (ok).
func (m *metrics) addIf(name string, v float64, ok bool, unit string) {
	if ok {
		m.add(name, v, unit)
	}
}

// addSpan adds the median duration (self: self time) of a span over the
// given classes, in µs, when any such span ran.
func (m *metrics) addSpan(name string, ss *spanStats, self bool, sp spanName, classes ...class) {
	if v, ok := ss.median(self, sp, classes...); ok {
		m.add(name, v, "us")
	}
}

// layerMetrics derives the per-layer metrics. Span times come from the
// traced phase; counters that need no spans (server, runtime, checkpoint,
// load generator) from the untraced phase; structure from the shapes
// taken after set-up and after the run.
func layerMetrics(s *spec, un, tp *phaseResult, sh0, sh1 shape, st engine.StorageStats, floor float64) metrics {
	var m metrics
	tr := tp.tracing
	ss := computeSpanStats(tr.allSpans())
	cnt := tr.counters()
	all := []class{hermitRange, btreeRange, pkRange, pkPoint, insertOp, updateOp}
	ranges := []class{hermitRange, btreeRange, pkRange}

	// internal/client + internal/server + internal/server/proto
	m.add("wire.tcp_floor_us", floor, "us")
	m.addSpan("wire.point_overhead_us", ss, true, spWire, pkPoint)
	m.addSpan("wire.range_overhead_us", ss, true, spWire, ranges...)
	durable := append(append([]float64(nil), ss.dur[spDurInsert][insertOp]...), ss.dur[spDurUpdate][updateOp]...)
	if wire, ok := ss.median(false, spWire, insertOp, updateOp); ok && len(durable) > 0 {
		m.add("wire.write_overhead_us", wire-medianF(durable), "us")
	}
	reqs := float64(un.srv1.Requests - un.srv0.Requests)
	m.add("server.coalesced_share", ratio(float64(un.srv1.Coalesced-un.srv0.Coalesced), reqs), "ratio")
	rejected := (tp.srv1.Rejected - un.srv0.Rejected) + (tp.srv1.QuotaRejected - un.srv0.QuotaRejected)
	m.add("server.rejected", float64(rejected), "count")
	var values int64
	var nreads int
	for _, r := range un.recs {
		values += r.values
		nreads += r.reads
	}
	m.add("proto.values_per_read", ratio(float64(values), float64(nreads)), "count")

	// internal/partition
	m.addSpan("partition.range_us", ss, false, spPartRange, all...)
	m.addSpan("partition.fanout_overhead_us", ss, true, spPartRange, ranges...)
	m.addSpan("partition.fetch_us", ss, false, spPartFetch, all...)

	// internal/engine
	m.addSpan("engine.range_us.hermit", ss, false, spEngRange, hermitRange)
	m.addSpan("engine.range_us.btree", ss, false, spEngRange, btreeRange)
	m.addSpan("engine.point_us", ss, false, spEngPoint, pkPoint)
	m.addSpan("engine.fetch_us", ss, false, spEngFetch, all...)
	for p := 0; p < numPaths; p++ {
		m.add("engine.path_share."+engine.AccessPath(p).String(), ratio(float64(cnt.paths[p]), float64(cnt.probes)), "ratio")
	}
	m.add("engine.candidates_per_row", ratio(float64(cnt.candidates), float64(cnt.rows)), "ratio")

	// internal/hermit
	m.addSpan("hermit.lookup_us", ss, false, spHermit, hermitRange)
	m.addSpan("hermit.validate_us", ss, true, spHermit, hermitRange)
	fp := 0.0
	if cnt.hermitCand > 0 {
		fp = 1 - float64(cnt.hermitQual)/float64(cnt.hermitCand)
	}
	m.add("hermit.false_positive_ratio", fp, "ratio")

	// internal/trstree
	m.addSpan("trstree.lookup_us", ss, false, spTRS, hermitRange)
	lookups := float64(cnt.trsLookups)
	m.add("trstree.ranges_per_lookup", ratio(float64(cnt.trsRanges), lookups), "count")
	m.add("trstree.outlier_ids_per_lookup", ratio(float64(cnt.trsID), lookups), "count")
	m.add("trstree.leaves_visited_per_lookup", ratio(float64(cnt.trsLeaves), lookups), "count")
	for _, x := range []struct {
		prefix string
		sh     shape
	}{{"trstree.", sh0}, {"trstree.end.", sh1}} {
		m.add(x.prefix+"leaves", float64(x.sh.leaves), "count")
		m.add(x.prefix+"height", float64(x.sh.height), "count")
		m.add(x.prefix+"outlier_fraction", ratio(float64(x.sh.outliers), float64(x.sh.rows*len(s.hermits))), "ratio")
		m.add(x.prefix+"bytes", float64(x.sh.trsBytes), "bytes")
		m.add(x.prefix+"pending_reorg", float64(x.sh.pendingReorg), "count")
	}

	// internal/btree
	m.addSpan("btree.host_scan_us", ss, false, spHostScan, hermitRange)
	m.add("btree.host_entries_per_lookup", ratio(float64(cnt.hostEntries), lookups), "count")
	m.addSpan("btree.range_scan_us", ss, false, spBTreeScan, btreeRange)
	m.add("btree.bytes", float64(sh0.btreeBytes), "bytes")

	// DurableDB + internal/wal
	m.addSpan("durable.insert_us", ss, false, spDurInsert, insertOp)
	m.addSpan("durable.update_us", ss, false, spDurUpdate, updateOp)
	var walBytes, walMuts int64
	for i := 1; i < len(tr.wal); i++ {
		a, b := tr.wal[i-1], tr.wal[i]
		if a.seg == b.seg && b.muts > a.muts {
			walBytes += b.size - a.size
			walMuts += b.muts - a.muts
		}
	}
	m.add("wal.bytes_per_mutation", ratio(float64(walBytes), float64(walMuts)), "bytes")

	// internal/block, through the checkpoints of the untraced phase
	var ckpt []float64
	for _, c := range un.ckpts {
		ckpt = append(ckpt, float64(c[1]-c[0])/1e6)
	}
	ckMax := 0.0
	for _, v := range ckpt {
		ckMax = max(ckMax, v)
	}
	m.addIf("durable.checkpoint_p50_ms", medianF(ckpt), len(ckpt) > 0, "ms")
	m.addIf("durable.checkpoint_max_ms", ckMax, len(ckpt) > 0, "ms")
	var stalled []int64
	for _, r := range un.recs {
		for _, c := range []class{insertOp, updateOp} {
			for i, due := range r.at[c] {
				for _, ck := range un.ckpts {
					if due >= ck[0] && due <= ck[1] {
						stalled = append(stalled, r.lat[c][i])
						break
					}
				}
			}
		}
	}
	stall, _ := percentile(stalled, 0.99)
	m.addIf("durable.stall_p99_us", stall/1e3, len(stalled) > 0, "us")
	m.add("block.flushes", float64(st.Flushes), "count")
	m.add("block.compactions", float64(st.Compactions), "count")
	m.add("block.write_amplification", st.WriteAmplification, "ratio")
	m.add("block.bytes", float64(st.BlockBytes), "bytes")
	m.add("block.compaction_backlog", float64(st.CompactionBacklog), "count")
	m.add("block.compact_errors", float64(st.CompactErrors), "count")

	// Go runtime and the load generator, over the untraced phase
	ops := float64(un.ops)
	m.add("runtime.allocs_per_op", ratio(float64(un.mem1.Mallocs-un.mem0.Mallocs), ops), "count")
	m.add("runtime.bytes_per_op", ratio(float64(un.mem1.TotalAlloc-un.mem0.TotalAlloc), ops), "bytes")
	m.add("runtime.gc_cycles", float64(un.mem1.NumGC-un.mem0.NumGC), "count")
	var lag []int64
	for _, r := range un.recs {
		lag = append(lag, r.lag...)
	}
	l, _ := percentile(lag, 0.99)
	m.addIf("loadgen.lag_p99_us", l/1e3, len(lag) > 0, "us")

	// Tracing overhead: traced phase minus untraced phase.
	reads := []class{hermitRange, btreeRange, pkRange, pkPoint}
	p50 := func(p *phaseResult) float64 { v, _, _ := p.windowedPct(0.5, reads...); return v / 1e3 }
	m.add("trace.overhead.throughput_ops_s", tp.throughput(s.openLoop)-un.throughput(s.openLoop), "ops/s")
	m.add("trace.overhead.read_p50_us", p50(tp)-p50(un), "us")
	return m
}

// printSelfTimes prints, per span name, the span count, the median
// duration and the median self time (duration minus child spans).
func printSelfTimes(w io.Writer, tr *tracing) {
	ss := computeSpanStats(tr.allSpans())
	all := []class{hermitRange, btreeRange, pkRange, pkPoint, insertOp, updateOp}
	for n := spanName(0); n < numSpanNames; n++ {
		if ss.count(n) == 0 {
			continue
		}
		dur, _ := ss.median(false, n, all...)
		self, _ := ss.median(true, n, all...)
		fmt.Fprintf(w, "self     %-18s spans=%-7d median_us=%-10.3f self_median_us=%.3f\n", spanNames[n], ss.count(n), dur, self)
	}
}
