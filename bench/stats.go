package main

import "sort"

// tailSamples is how many samples must lie beyond a percentile before it
// is reported: fewer and the figure is one slow request, not a tail.
const tailSamples = 10

// percentileLadder are the percentiles a metric may fall back to, highest
// first.
var percentileLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// supportedQ returns the highest ladder percentile not above q that has at
// least tailSamples samples beyond it among n (the median when none has).
func supportedQ(n int, q float64) float64 {
	for _, c := range percentileLadder {
		if c <= q && float64(n)*(1-c) >= tailSamples-1e-9 { // 100*(1-0.9) is 9.999..
			return c
		}
	}
	return 0.50
}

// percentile is the nearest-rank q-quantile of an ascending slice (0 when
// empty).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tail is percentile at the highest supported percentile not above q.
func tail(sorted []float64, q float64) float64 {
	return percentile(sorted, supportedQ(len(sorted), q))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an unsorted sample (0 when empty).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// midmean is the mean of the middle half of an unsorted sample (0 when
// empty): like the median it ignores outliers, and unlike it moves smoothly
// when the sample mixes two levels in changing shares.
func midmean(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	s = s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(n=4)
// does (exclusive method), so spreads match what the driver computes.
// Fewer than two samples have no spread: both are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	if m < 2 {
		return median(s), median(s)
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}
