package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailLadder is the set of percentiles a tail latency may be reported
// at, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer, and the value is one or two outliers, not a tail.
const minBeyond = 10

// tailPercentile returns the highest percentile on tailLadder that has
// at least minBeyond of n samples beyond it, and false when even the
// median lacks that support.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the p-th percentile of sorted by the nearest-rank
// method: the smallest sample with at least p% of samples at or below
// it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9)) // tolerate p/100 rounding up
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
