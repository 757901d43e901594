package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the p-th percentile (0 < p <= 100) of an ascending
// slice by the nearest-rank rule: the smallest sample with at least p% of
// the samples at or below it. p = 100 is the maximum.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p / 100 * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[k-1]
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// median is the middle sample (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile picks the highest reported percentile that leaves at
// least ten samples beyond it: p99 from 1000 samples, p90 from 100, and
// the maximum below that.
func tailPercentile(n int) (p float64, label string) {
	switch {
	case n >= 1000:
		return 99, "p99"
	case n >= 100:
		return 90, "p90"
	}
	return 100, "max"
}

// timing summarizes one operation's latency samples.
type timing struct {
	N         int
	P50       float64
	Tail      float64
	TailLabel string
}

func summarize(xs []float64) timing {
	s := sortedCopy(xs)
	p, label := tailPercentile(len(s))
	return timing{N: len(s), P50: median(s), Tail: nearestRank(s, p), TailLabel: label}
}

// quartiles returns the first, second and third quartiles with the
// interpolation Python's statistics.quantiles(xs, n=4) uses (its default
// "exclusive" method), so spreads computed here match the ones the
// acceptance rule is stated in. One sample is every quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
