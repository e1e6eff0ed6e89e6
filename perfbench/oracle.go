package main

import (
	"fmt"
	"math"
	"sort"
)

// checkRead reports whether a read's rows are right. Every returned row
// must satisfy the predicate. On the read-only workloads the row count
// must equal the count taken from the generated data, and a primary-key
// point read must return the generated row. synth-ingest defers to its
// ingest oracle.
func (s *spec) checkRead(c int, o *op, rows [][]float64) bool {
	for _, r := range rows {
		if len(r) != s.ncols() || r[o.col] < o.lo || r[o.col] > o.hi {
			return false
		}
	}
	if o.want >= 0 {
		if len(rows) != o.want {
			return false
		}
		if o.cls == pkPoint {
			want := s.row(int(o.lo))
			for i, v := range rows[0] {
				if v != want[i] {
					return false
				}
			}
		}
		return true
	}
	return s.ingest.checkRange(c, o, rows)
}

// ingestOracle tracks synth-ingest's table as the connections mutate it.
// Each connection owns the keys of its parity, so it knows the exact
// state of its own keys at every moment, and for the other connection's
// keys it knows bounds that hold whatever prefix of that stream has run:
//
//   - own rows in a range: exactly the owner's current multiset of colC
//     values in the range (a Fenwick tree over the values it will ever hold);
//   - other rows in a range: at least the other's base rows that its whole
//     stream never touches, at most those plus every version any touched
//     key of the other's ever has.
type ingestOracle struct {
	n0   int
	cur  []float64 // current colC by key (NaN: absent); written only by the key's owner
	own  [conns]*fenwick
	keep [conns][]float64 // sorted colC of base keys the owner's stream never mutates
	ever [conns][]float64 // sorted colC of every version of the keys it mutates
	// reserved counts rows inserted on the reserved key range by the
	// durable rungs of a traced run.
	reserved int
}

func newIngestOracle(s *spec) *ingestOracle {
	n0 := s.rows()
	maxKey := n0
	for c := range s.streams {
		for _, o := range s.streams[c] {
			if o.cls == insertOp && int(o.row[0]) >= maxKey {
				maxKey = int(o.row[0]) + 1
			}
		}
	}
	g := &ingestOracle{n0: n0, cur: make([]float64, maxKey)}
	for k := range g.cur {
		g.cur[k] = math.NaN()
	}
	for k := 0; k < n0; k++ {
		g.cur[k] = s.data[k*4+2]
	}
	for c := 0; c < conns; c++ {
		touched := map[int]bool{}
		var values, ever []float64
		for k := c; k < n0; k += conns {
			values = append(values, g.cur[k])
		}
		for _, o := range s.streams[c] {
			switch o.cls {
			case insertOp:
				values = append(values, o.row[2])
				ever = append(ever, o.row[2])
			case updateOp:
				k := int(o.pk)
				if k < n0 && !touched[k] {
					ever = append(ever, g.cur[k])
				}
				touched[k] = true
				values = append(values, o.val)
				ever = append(ever, o.val)
			}
		}
		var keep []float64
		for k := c; k < n0; k += conns {
			if !touched[k] {
				keep = append(keep, g.cur[k])
			}
		}
		sort.Float64s(keep)
		sort.Float64s(ever)
		g.keep[c], g.ever[c] = keep, ever
		g.own[c] = newFenwick(values)
		for k := c; k < n0; k += conns {
			g.own[c].add(g.cur[k], 1)
		}
	}
	return g
}

// applied records an acknowledged mutation of connection c.
func (g *ingestOracle) applied(c int, o *op) {
	switch o.cls {
	case insertOp:
		k := int(o.row[0])
		g.cur[k] = o.row[2]
		g.own[c].add(o.row[2], 1)
	case updateOp:
		k := int(o.pk)
		g.own[c].add(g.cur[k], -1)
		g.cur[k] = o.val
		g.own[c].add(o.val, 1)
	}
}

// checkRange checks a Hermit range read by connection c.
func (g *ingestOracle) checkRange(c int, o *op, rows [][]float64) bool {
	mine, other := 0, 0
	for _, r := range rows {
		k := int(r[0])
		if k%conns == c {
			if k >= len(g.cur) || g.cur[k] != r[2] {
				return false
			}
			mine++
		} else {
			other++
		}
	}
	if mine != g.own[c].count(o.lo, o.hi) {
		return false
	}
	oc := (c + 1) % conns
	least := countIn(g.keep[oc], o.lo, o.hi)
	return other >= least && other <= least+countIn(g.ever[oc], o.lo, o.hi)
}

// checkFinal compares a full scan of the table (every row, by key) with
// the oracle: the row count, and every key's last colC value. It returns
// the number of mismatches.
func (g *ingestOracle) checkFinal(rows [][]float64) (int, error) {
	want := g.reserved
	for _, v := range g.cur {
		if !math.IsNaN(v) {
			want++
		}
	}
	bad := 0
	if len(rows) != want {
		bad++
	}
	seen := 0
	for _, r := range rows {
		k := int(r[0])
		if float64(k) >= reservedBase {
			continue
		}
		seen++
		if k >= len(g.cur) || g.cur[k] != r[2] {
			bad++
		}
	}
	if bad > 0 {
		return bad, fmt.Errorf("final state: %d rows (want %d), %d mismatches", len(rows), want, bad)
	}
	return 0, nil
}

// fenwick is a counting multiset over a fixed universe of float values.
type fenwick struct {
	vals []float64 // sorted distinct universe
	tree []int
}

func newFenwick(universe []float64) *fenwick {
	u := append([]float64(nil), universe...)
	sort.Float64s(u)
	n := 0
	for i, v := range u {
		if i == 0 || v != u[n-1] {
			u[n] = v
			n++
		}
	}
	return &fenwick{vals: u[:n], tree: make([]int, n+1)}
}

func (f *fenwick) add(v float64, d int) {
	i := sort.SearchFloat64s(f.vals, v) + 1
	for ; i < len(f.tree); i += i & -i {
		f.tree[i] += d
	}
}

// prefix counts values at ranks below i.
func (f *fenwick) prefix(i int) int {
	n := 0
	for ; i > 0; i -= i & -i {
		n += f.tree[i]
	}
	return n
}

func (f *fenwick) count(lo, hi float64) int {
	return f.prefix(sort.SearchFloat64s(f.vals, math.Nextafter(hi, math.Inf(1)))) - f.prefix(sort.SearchFloat64s(f.vals, lo))
}
