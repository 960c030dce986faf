// Package stats holds the order statistics bsperf reduces its samples
// with: medians, quartiles, and a tail percentile that refuses to report
// a rank the sample cannot support.
package stats

import (
	"math"
	"sort"
)

// TailSupport is how many samples must lie beyond a percentile before
// Tail reports it: with fewer, the reading is one outlier, not a rank.
const TailSupport = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty sample.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Quartiles returns the first, second, and third quartile of xs by the
// exclusive method (the one Python's statistics.quantiles(xs, n=4)
// uses, so spreads computed here match the acceptance driver's). It
// needs at least two samples; with fewer, all three are the median.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		m := Median(xs)
		return m, m, m
	}
	s := sorted(xs)
	at := func(k int) float64 {
		// Position k*(n+1)/4 on a 1-based scale; like Python, clamp the
		// lower neighbour into the sample and extrapolate past the ends.
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// Spread returns the interquartile range of xs as a share of its
// median — the run-to-run noise figure the benchmark is judged by. It
// is 0 when the median is 0.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// Tail returns the p-th percentile of xs (0 < p < 100, nearest-rank)
// and true, or 0 and false when fewer than TailSupport samples lie
// beyond that rank.
func Tail(xs []float64, p float64) (float64, bool) {
	if p <= 0 || p >= 100 {
		return 0, false
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 || n-rank < TailSupport {
		return 0, false
	}
	return sorted(xs)[rank-1], true
}
