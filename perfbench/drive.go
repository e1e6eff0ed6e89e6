package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hermit/internal/client"
	"hermit/internal/server"
)

// connRec is what one connection records over one phase.
type connRec struct {
	lat       [numClasses][]int64 // ns: from send (closed loop) or due time (open loop) to response
	at        [numClasses][]int64 // ns after phase start each op was due, parallel to lat
	attempted int
	failed    int // the server answered an error
	wrong     int // the oracle rejected the result
	values    int64
	reads     int
	lag       []int64 // open loop: how late the generator's timer fired, when the connection was idle
	reserved  int     // rows inserted on the reserved key range (traced durable rungs)
}

// phaseResult aggregates one phase over both connections.
type phaseResult struct {
	recs    [conns]*connRec
	window  time.Duration // the measured stretch
	elapsed time.Duration
	ops     int
	ckpts   [][2]int64 // checkpoint spans, ns after phase start
	ckptErr error
	mem0    runtime.MemStats
	mem1    runtime.MemStats
	srv0    server.StatsSnapshot
	srv1    server.StatsSnapshot
	tracing *tracing
}

func (p *phaseResult) attempted() (n int) {
	for _, r := range p.recs {
		n += r.attempted
	}
	return n
}

func (p *phaseResult) failed() (n int) {
	for _, r := range p.recs {
		n += r.failed + r.wrong
	}
	return n
}

// count is the number of ops of the given classes the phase ran.
func (p *phaseResult) count(classes ...class) (n int) {
	for _, r := range p.recs {
		for _, c := range classes {
			n += len(r.lat[c])
		}
	}
	return n
}

// windowLen is the length of the stretches a phase is cut into. Each
// percentile and each closed-loop throughput is the median of the
// stretches' values, so a burst of noise from outside the benchmark, or
// one unusually slow checkpoint fsync, does not decide the run's figure.
const windowLen = 2 * time.Second

// windows is the number of stretches in the phase (at least one).
func (p *phaseResult) windows() int { return max(1, int(p.window/windowLen)) }

// perWindow splits the samples of the given classes by the window their
// op was due in.
func (p *phaseResult) perWindow(classes ...class) [][]int64 {
	n := p.windows()
	per := make([][]int64, n)
	for _, r := range p.recs {
		for _, c := range classes {
			for i, at := range r.at[c] {
				w := int(at * int64(n) / int64(p.window))
				w = max(0, min(w, n-1))
				per[w] = append(per[w], r.lat[c][i])
			}
		}
	}
	return per
}

// windowedPct returns the median over the windows of each window's q-th
// percentile of the given classes (ns), with the total sample count and
// the samples beyond the percentile in the median window.
func (p *phaseResult) windowedPct(q float64, classes ...class) (v float64, n, beyond int) {
	type win struct {
		v      float64
		beyond int
	}
	var ws []win
	for _, s := range p.perWindow(classes...) {
		n += len(s)
		if len(s) > 0 {
			v, b := percentile(s, q)
			ws = append(ws, win{v, b})
		}
	}
	if len(ws) == 0 {
		return 0, 0, 0
	}
	sort.Slice(ws, func(a, b int) bool { return ws[a].v < ws[b].v })
	m := ws[len(ws)/2]
	return m.v, n, m.beyond
}

// throughput is ops per second: on a closed loop the median over the
// windows of the ops sent in each, per second; on an open loop, where
// each window's count is fixed by the schedule, the ops completed over the
// time until the last response.
func (p *phaseResult) throughput(openLoop bool) float64 {
	if openLoop {
		return float64(p.ops) / p.elapsed.Seconds()
	}
	var rates []float64
	for _, s := range p.perWindow(hermitRange, btreeRange, pkRange, pkPoint, insertOp, updateOp) {
		rates = append(rates, float64(len(s))/(p.window.Seconds()/float64(p.windows())))
	}
	return medianF(rates)
}

// runner drives a workload's streams against a served instance. Stream
// positions persist across phases, so warm-up, untraced and traced
// phases consume one stream in order.
type runner struct {
	s    *spec
	sv   *served
	h    *handles
	pos  [conns]int
	clk  time.Duration // open loop: stream time consumed by earlier phases
	muts atomic.Int64  // acknowledged stream mutations
}

// do sends one op over the wire.
func (r *runner) do(conn *client.Conn, o *op) ([][]float64, error) {
	t := r.s.table
	switch o.cls {
	case pkPoint:
		return conn.Point(t, o.col, o.lo)
	case insertOp:
		return nil, conn.Insert(t, o.row)
	case updateOp:
		return nil, conn.Update(t, o.pk, o.col, o.val)
	}
	return conn.Range(t, o.col, o.lo, o.hi)
}

// warm runs each connection's warm-up reads for at most d, checked but
// not timed, so lazy set-up (pools, planner statistics, wrappers) is done
// before measuring.
func (r *runner) warm(d time.Duration) (attempted, failed int) {
	var wg sync.WaitGroup
	var att, bad [conns]int
	deadline := time.Now().Add(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < len(r.s.warm[c]) && time.Now().Before(deadline); i++ {
				o := &r.s.warm[c][i]
				rows, err := r.do(r.sv.conns[c], o)
				att[c]++
				if err != nil || !r.s.checkRead(c, o, rows) {
					bad[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	return att[0] + att[1], bad[0] + bad[1]
}

// phase runs the workload for seconds. With tr set, every op gets a wire
// span and sampled reads are replayed down the layers.
func (r *runner) phase(seconds float64, tr *tracing) *phaseResult {
	window := time.Duration(seconds * float64(time.Second))
	res := &phaseResult{tracing: tr, window: window}
	runtime.GC()
	runtime.ReadMemStats(&res.mem0)
	res.srv0 = r.sv.srv.Stats()

	var trig chan struct{}
	var ckWG sync.WaitGroup
	start := time.Now()
	if tr != nil {
		tr.sampleWAL(r)
	}
	if r.s.ckptEvery > 0 {
		trig = make(chan struct{}, 1)
		ckWG.Add(1)
		go func() {
			defer ckWG.Done()
			r.checkpointer(trig, start, res, tr)
		}()
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		res.recs[c] = &connRec{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if r.s.openLoop {
				r.openLoop(c, start, window, res.recs[c], trig, tr)
			} else {
				r.closedLoop(c, start.Add(window), start, res.recs[c], trig, tr)
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	if trig != nil {
		close(trig)
		ckWG.Wait()
	}
	if tr != nil {
		tr.pause(r) // every connection has stopped: run the last deferred rungs
	}
	if r.s.openLoop {
		r.clk += window
	}
	runtime.ReadMemStats(&res.mem1)
	res.srv1 = r.sv.srv.Stats()
	for _, rec := range res.recs {
		for _, l := range rec.lat {
			res.ops += len(l)
		}
	}
	return res
}

// closedLoop sends the next op as soon as the previous one returns.
// Read-only streams wrap around; a finite write stream ends the loop.
func (r *runner) closedLoop(c int, deadline, start time.Time, rec *connRec, trig chan struct{}, tr *tracing) {
	stream := r.s.streams[c]
	for time.Now().Before(deadline) {
		i := r.pos[c]
		if r.s.ingest != nil && i >= len(stream) {
			return
		}
		r.pos[c]++
		o := &stream[i%len(stream)]
		t0 := time.Now()
		r.exec(c, o, t0, start, rec, trig, tr)
	}
}

// openLoop sends each op at its scheduled time (or as soon as the
// connection is free, when it is running late), and times each op from
// its scheduled time, so a stall is charged to every op queued behind it.
func (r *runner) openLoop(c int, start time.Time, window time.Duration, rec *connRec, trig chan struct{}, tr *tracing) {
	stream := r.s.streams[c]
	p, err := newPacer()
	if err != nil {
		rec.failed++ // counted, so the run cannot pass as correct
		return
	}
	defer p.close()
	base := start.Add(-r.clk) // stream time 0
	end := r.clk + window
	for r.pos[c] < len(stream) && stream[r.pos[c]].due < end {
		o := &stream[r.pos[c]]
		r.pos[c]++
		due := base.Add(o.due)
		if now := time.Now(); now.Before(due) {
			if err := p.sleep(due.Sub(now)); err != nil {
				rec.failed++
				return
			}
			rec.lag = append(rec.lag, int64(time.Since(due)))
		}
		r.exec(c, o, due, start, rec, trig, tr)
	}
}

// exec sends one op, times it from due, checks its result and, for a
// mutation, updates the oracle and the checkpoint trigger.
func (r *runner) exec(c int, o *op, due, start time.Time, rec *connRec, trig chan struct{}, tr *tracing) {
	conn := r.sv.conns[c]
	write := !o.cls.isRead()
	var ws int
	if tr != nil {
		if write {
			tr.gate.RLock()
		}
		ws = tr.tracers[c].open(spWire, o.cls, tr.tracers[c].newReq(), 0)
	}
	rows, err := r.do(conn, o)
	done := time.Now()
	rec.attempted++
	if tr != nil {
		t := tr.tracers[c]
		t.closeAt(ws, done)
		if write {
			if rec.attempted%traceEvery == 0 {
				tr.durableRung(r, c, rec)
			}
			tr.gate.RUnlock()
		} else if rec.reads%traceEvery == 0 {
			tr.replay(r, c, o, ws)
		}
	}
	rec.lat[o.cls] = append(rec.lat[o.cls], int64(done.Sub(due)))
	rec.at[o.cls] = append(rec.at[o.cls], int64(due.Sub(start)))
	switch {
	case err != nil:
		rec.failed++
	case write:
		r.s.ingest.applied(c, o)
		if n := r.muts.Add(1); trig != nil && n%int64(r.s.ckptEvery) == 0 {
			select {
			case trig <- struct{}{}:
			default: // a checkpoint is already pending
			}
		}
	default:
		rec.reads++
		rec.values += int64(len(rows) * r.s.ncols())
		if !r.s.checkRead(c, o, rows) {
			rec.wrong++
		}
	}
}

// checkpointer runs a checkpoint per trigger, as hermitd schedules none.
// In a traced run it then pauses writers and runs the deferred rungs.
func (r *runner) checkpointer(trig <-chan struct{}, start time.Time, res *phaseResult, tr *tracing) {
	for range trig {
		t0 := time.Now()
		err := r.sv.d.Checkpoint()
		t1 := time.Now()
		res.ckpts = append(res.ckpts, [2]int64{int64(t0.Sub(start)), int64(t1.Sub(start))})
		if err != nil && res.ckptErr == nil {
			res.ckptErr = err
		}
		if tr != nil {
			tr.pause(r)
		}
	}
}
