package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"hermit/internal/workload"
)

// conns is the number of client connections every workload drives: one
// per CPU of the two-CPU machine the benchmark is sized for.
const conns = 2

// class groups operations the way the report groups latencies.
type class uint8

const (
	hermitRange class = iota // range on a Hermit-indexed column
	btreeRange               // range on the complete B+-tree host column
	pkRange                  // short range on the primary key
	pkPoint                  // point read on the primary key
	insertOp                 // insert of a new row
	updateOp                 // UpdateColumn on an existing row
	numClasses
)

var classNames = [numClasses]string{"hermit_range", "btree_range", "pk_range", "pk_point", "insert", "update"}

func (c class) String() string { return classNames[c] }

func (c class) isRead() bool { return c <= pkPoint }

// op is one generated operation. Streams are generated in full before
// timing starts, so the program only ever sees these inputs.
type op struct {
	cls    class
	col    int
	lo, hi float64       // reads: the predicate (point reads use lo == hi)
	row    []float64     // insert: the row
	pk     float64       // update: the key
	val    float64       // update: the new value
	want   int           // read-only workloads: exact expected row count
	due    time.Duration // open loop: send time after the stream clock starts
}

// hermitDef is one Hermit index: target column hosted on host.
type hermitDef struct{ col, host int }

// spec is a workload: its table, indexes, base data, per-connection op
// streams and result oracle, all derived from the seed.
type spec struct {
	table     string
	cols      []string
	pkCol     int
	parts     int // hash partitions; 0 is a plain table
	btreeCols []int
	hermits   []hermitDef
	data      []float64 // base rows, row-major
	openLoop  bool
	rate      float64 // offered ops/s over all connections (open loop)
	ckptEvery int     // acknowledged mutations between checkpoints (0: none)
	streams   [conns][]op
	warm      [conns][]op // read-only warm-up ops run before timing
	ingest    *ingestOracle
}

func (s *spec) ncols() int { return len(s.cols) }

func (s *spec) rows() int { return len(s.data) / len(s.cols) }

func (s *spec) row(i int) []float64 { n := len(s.cols); return s.data[i*n : (i+1)*n] }

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"synth-read", "sensor-fanout", "synth-ingest"}

// Default sizes. scale multiplies the row counts (tests run tiny scales).
const (
	synthReadRows   = 1_000_000
	sensorRows      = 300_000
	ingestBaseRows  = 200_000
	readStreamLen   = 1 << 16 // closed-loop streams wrap around
	targetRows      = 100     // expected rows per synthetic range
	ingestCkptEvery = 4096    // mutations between checkpoints
	// defaultIngestRate is synth-ingest's offered load (ops/s over both
	// connections): about 15% of its closed-loop capacity, 14–15k ops/s,
	// measured with -rate -1 on a two-vCPU x86-64 VM. Nearer half the
	// capacity, checkpoint stalls queued the load up and its latencies did
	// not repeat from run to run (see README.md).
	defaultIngestRate = 2000
)

// newSpec builds the named workload. seconds sizes the open-loop stream.
func newSpec(name string, seed int64, scale float64, seconds float64, rate float64) (*spec, error) {
	scaled := func(n int) int {
		v := int(float64(n) * scale)
		if v < 200 {
			v = 200
		}
		return v &^ 1 // even, so key parity splits base rows evenly
	}
	switch name {
	case "synth-read":
		return synthRead(seed, scaled(synthReadRows)), nil
	case "sensor-fanout":
		return sensorFanout(seed, scaled(sensorRows)), nil
	case "synth-ingest":
		if rate == 0 {
			rate = defaultIngestRate
		}
		if rate > 0 {
			return synthIngest(seed, scaled(ingestBaseRows), seconds, rate), nil
		}
		// A negative rate runs the stream closed-loop, to measure
		// capacity; it is generated at a rate the loop cannot exhaust.
		s := synthIngest(seed, scaled(ingestBaseRows), seconds, 25*defaultIngestRate)
		s.openLoop, s.rate = false, 0
		return s, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// synthetic generates Synthetic-Linear rows: colB = 2·colC + 100 with 1%
// noise, colC uniform over [0, 1000].
func synthetic(seed int64, rows int) []float64 {
	ws := workload.SyntheticSpec{Rows: rows, Fn: workload.Linear, Noise: 0.01, Seed: seed}
	data := make([]float64, 0, rows*4)
	_ = ws.Generate(func(row []float64) error { data = append(data, row...); return nil })
	return data
}

// sortedCol returns column col of the base data, sorted.
func (s *spec) sortedCol(col int) []float64 {
	out := make([]float64, s.rows())
	for i := range out {
		out[i] = s.data[i*s.ncols()+col]
	}
	sort.Float64s(out)
	return out
}

// countIn counts sorted values in [lo, hi].
func countIn(sorted []float64, lo, hi float64) int {
	return sort.SearchFloat64s(sorted, math.Nextafter(hi, math.Inf(1))) - sort.SearchFloat64s(sorted, lo)
}

func streamRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(c) + 1))
}

func synthRead(seed int64, rows int) *spec {
	s := &spec{
		table: "synth", cols: workload.SyntheticSpec{}.Columns(),
		btreeCols: []int{1}, hermits: []hermitDef{{col: 2, host: 1}},
		data: synthetic(seed, rows),
	}
	colB, colC := s.sortedCol(1), s.sortedCol(2)
	width := math.Min(workload.SyntheticSpan, workload.SyntheticSpan*targetRows/float64(rows))
	for c := 0; c < conns; c++ {
		rng := streamRand(seed, c)
		ops := make([]op, readStreamLen)
		for i := range ops {
			u := rng.Float64()
			lo := rng.Float64() * (workload.SyntheticSpan - width)
			switch {
			case u < 0.45:
				ops[i] = op{cls: hermitRange, col: 2, lo: lo, hi: lo + width}
				ops[i].want = countIn(colC, ops[i].lo, ops[i].hi)
			case u < 0.90:
				// The same colC interval mapped through the correlation:
				// the same expected row count, on the B+-tree.
				ops[i] = op{cls: btreeRange, col: 1, lo: 2*lo + 100, hi: 2*(lo+width) + 100}
				ops[i].want = countIn(colB, ops[i].lo, ops[i].hi)
			default:
				k := float64(rng.Intn(rows))
				ops[i] = op{cls: pkPoint, col: 0, lo: k, hi: k, want: 1}
			}
		}
		s.streams[c] = ops
		s.warm[c] = ops
	}
	return s
}

// sensorChannels are the reading channels given Hermit indexes.
var sensorChannels = []int{0, 5, 10, 15}

func sensorFanout(seed int64, rows int) *spec {
	ws := workload.DefaultSensorSpec(rows)
	ws.Seed = seed
	s := &spec{
		table: "sensor", cols: ws.Columns(), parts: 4,
		btreeCols: []int{ws.AvgCol()},
	}
	s.data = make([]float64, 0, rows*len(s.cols))
	_ = ws.Generate(func(row []float64) error { s.data = append(s.data, row...); return nil })
	sorted := make([][]float64, len(sensorChannels))
	for i, ch := range sensorChannels {
		s.hermits = append(s.hermits, hermitDef{col: ws.ReadingCol(ch), host: ws.AvgCol()})
		sorted[i] = s.sortedCol(ws.ReadingCol(ch))
	}
	minK, maxK := 20, 300
	if maxK > rows/4 {
		minK, maxK = 1, rows/4
	}
	for c := 0; c < conns; c++ {
		rng := streamRand(seed, c)
		ops := make([]op, readStreamLen)
		for i := range ops {
			u := rng.Float64()
			switch {
			case u < 0.8:
				// A channel range spanning k consecutive values of that
				// channel: tens to a few hundred rows per query.
				j := rng.Intn(len(sensorChannels))
				k := minK + rng.Intn(maxK-minK+1)
				at := rng.Intn(rows - k)
				o := op{cls: hermitRange, col: s.hermits[j].col, lo: sorted[j][at], hi: sorted[j][at+k]}
				o.want = countIn(sorted[j], o.lo, o.hi)
				ops[i] = o
			case u < 0.9:
				n := 5 + rng.Intn(46)
				start := float64(rng.Intn(rows - n))
				ops[i] = op{cls: pkRange, col: 0, lo: start, hi: start + float64(n-1), want: n}
			default:
				k := float64(rng.Intn(rows))
				ops[i] = op{cls: pkPoint, col: 0, lo: k, hi: k, want: 1}
			}
		}
		s.streams[c] = ops
		s.warm[c] = ops
	}
	return s
}

// synthIngest builds the open-loop write workload. Connection c owns the
// keys ≡ c (mod 2): base keys 0..n0-1 and appended keys n0+2j+c. Updates
// pick an owned live key; ranges read colC through the Hermit index.
func synthIngest(seed int64, n0 int, seconds, rate float64) *spec {
	s := &spec{
		table: "ingest", cols: workload.SyntheticSpec{}.Columns(),
		btreeCols: []int{1}, hermits: []hermitDef{{col: 2, host: 1}},
		data: synthetic(seed, n0), openLoop: true, rate: rate, ckptEvery: ingestCkptEvery,
	}
	width := math.Min(workload.SyntheticSpan, workload.SyntheticSpan*targetRows/float64(n0))
	colC := s.sortedCol(2)
	perConn := rate / conns
	for c := 0; c < conns; c++ {
		rng := streamRand(seed, c)
		var owned []float64 // live owned keys, for update targets
		colB := map[float64]float64{}
		for k := c; k < n0; k += conns {
			owned = append(owned, float64(k))
			colB[float64(k)] = s.data[k*4+1]
		}
		next := float64(n0 + c)
		var due time.Duration
		var ops []op
		for {
			due += time.Duration(rng.ExpFloat64() / perConn * float64(time.Second))
			if due.Seconds() >= seconds {
				break
			}
			u := rng.Float64()
			var o op
			switch {
			case u < 0.7:
				cv := rng.Float64() * workload.SyntheticSpan
				b := 2*cv + 100
				if rng.Float64() < 0.01 {
					b = rng.Float64() * (2*workload.SyntheticSpan + 100) * 1.5
				}
				o = op{cls: insertOp, row: []float64{next, b, cv, rng.Float64()}}
				owned = append(owned, next)
				colB[next] = b
				next += conns
			case u < 0.8:
				pk := owned[rng.Intn(len(owned))]
				o = op{cls: updateOp, pk: pk, col: 2, val: offCorrelation(rng, colB[pk])}
			default:
				lo := rng.Float64() * (workload.SyntheticSpan - width)
				o = op{cls: hermitRange, col: 2, lo: lo, hi: lo + width, want: -1}
			}
			o.due = due
			ops = append(ops, o)
		}
		s.streams[c] = ops
		// Warm-up reads run before any mutation, so their counts are exact.
		warm := make([]op, 512)
		for i := range warm {
			lo := rng.Float64() * (workload.SyntheticSpan - width)
			warm[i] = op{cls: hermitRange, col: 2, lo: lo, hi: lo + width}
			warm[i].want = countIn(colC, warm[i].lo, warm[i].hi)
		}
		s.warm[c] = warm
	}
	s.ingest = newIngestOracle(s)
	return s
}

// offCorrelation draws a colC value at least 100 away from the value the
// row's colB predicts, so the updated row becomes a TRS-Tree outlier.
func offCorrelation(rng *rand.Rand, b float64) float64 {
	fit := (b - 100) / 2
	for {
		v := rng.Float64() * workload.SyntheticSpan
		if math.Abs(v-fit) >= 100 {
			return v
		}
	}
}

// streamHash fingerprints one connection's stream, so two runs at one
// seed can be checked to have sent identical inputs.
func streamHash(ops []op) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) { binary.LittleEndian.PutUint64(b[:], math.Float64bits(v)); h.Write(b[:]) }
	for i := range ops {
		o := &ops[i]
		h.Write([]byte{byte(o.cls)})
		put(float64(o.col))
		put(o.lo)
		put(o.hi)
		put(o.pk)
		put(o.val)
		put(float64(o.due))
		for _, v := range o.row {
			put(v)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
