package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one reported number. Percentiles carry their sample count
// and the number of samples beyond them.
type metric struct {
	name      string
	value     float64
	unit      string
	n, beyond int
	pct       bool
}

// metrics is an ordered metric list.
type metrics []metric

func (m *metrics) add(name string, value float64, unit string) {
	*m = append(*m, metric{name: name, value: value, unit: unit})
}

// addWindowed adds a phase's windowed q-th percentile (see
// phaseResult.windowedPct), in µs.
func (m *metrics) addWindowed(name string, p *phaseResult, q float64, classes ...class) {
	v, n, beyond := p.windowedPct(q, classes...)
	*m = append(*m, metric{name: name, value: v / 1e3, unit: "us", n: n, beyond: beyond, pct: true})
}

// percentile returns the nearest-rank p-th percentile of samples and the
// number of samples above that rank; 0 for no samples.
func percentile(samples []int64, p float64) (float64, int) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i]), len(s) - 1 - i
}

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func (m metrics) print(w io.Writer, section string) {
	for _, x := range m {
		if x.pct {
			fmt.Fprintf(w, "%-8s %-36s %14.3f %-7s n=%d beyond=%d\n", section, x.name, x.value, x.unit, x.n, x.beyond)
		} else {
			fmt.Fprintf(w, "%-8s %-36s %14.6g %s\n", section, x.name, x.value, x.unit)
		}
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
