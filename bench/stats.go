package main

import (
	"math"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns the sample in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tail returns the q-quantile only when at least ten samples lie beyond
// it — the highest percentile a sample supports (choosing-metrics §1);
// otherwise 0, which the README documents as "not enough samples".
func tail(sorted []float64, q float64) float64 {
	if float64(len(sorted))*(1-q) < 10 {
		return 0
	}
	return quantile(sorted, q)
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
