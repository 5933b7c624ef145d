package main

import "sort"

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the percentiles session_ms_tail may report, highest
// first.
var tailPercentiles = []float64{99.9, 99, 90, 75, 50}

// tailPercentile returns the highest listed percentile of xs that has at
// least ten values above it, and its value (the median when none has).
func tailPercentile(xs []float64) (pct, value float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailPercentiles {
		k := int(float64(n)*p/100+0.5) - 1 // nearest-rank index
		if k >= 0 && n-1-k >= 10 {
			return p, s[k]
		}
	}
	return 50, median(xs)
}
