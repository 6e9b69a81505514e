package main

import (
	"fmt"
	"sort"
	"strings"
)

// spread is a sample's median and quartiles.
type spread struct {
	Q1, Median, Q3 float64
	N              int
}

// summarize returns the median and quartiles of v, with the quartiles
// computed as Python's statistics.quantiles(v, n=4) computes them (the
// "exclusive" method), so the figures printed here match the ones a
// reader recomputes from the per-run values.
func summarize(v []float64) spread {
	if len(v) == 0 {
		return spread{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		return spread{s[0], s[0], s[0], 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return spread{q(1), med, q(3), n}
}

func median(v []float64) float64 { return summarize(v).Median }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates the metrics of one benchmark invocation plus the
// human-readable lines printed ahead of the final JSON object.
type report struct {
	metrics map[string]metric
	lines   []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric under its declared unit.
func (r *report) set(name string, value float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("perfbench: metric " + name + " has no declared unit")
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// setSpread records a metric's median and prints its quartiles.
func (r *report) setSpread(name string, v []float64) {
	s := summarize(v)
	r.set(name, s.Median)
	r.printf("%-28s median %-14.6g q1 %-14.6g q3 %-14.6g n=%d %s", name, s.Median, s.Q1, s.Q3, s.N, metricUnits[name])
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// notApplicable records metrics that have no meaning on a workload: they
// are emitted as 0 and listed by name in the report.
func (r *report) notApplicable(why string, names ...string) {
	for _, n := range names {
		r.set(n, 0)
	}
	if len(names) > 0 {
		r.printf("not applicable (%s): %s", why, strings.Join(names, " "))
	}
}
