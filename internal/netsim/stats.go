package netsim

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0-100) of a float slice, with
// linear interpolation between order statistics (sorted or not; the input
// is not modified). NaN for an empty slice.
//
// Every integer or float percentile (queue occupancies, FCT
// distributions, stretch tables) funnels through it, with one exception
// kept on purpose: gaming.percentile, behind Fig 12's p95 frame times,
// picks the order statistic at the truncated rank without interpolating,
// and folding it in would move that column.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// PercentileInts returns the p-th percentile (0-100) of an int slice
// (sorted or not; the input is not modified). NaN for an empty slice.
func PercentileInts(values []int, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(values))
	for i, v := range values {
		s[i] = float64(v)
	}
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// percentileSorted interpolates the p-th percentile of an ascending slice.
func percentileSorted(s []float64, p float64) float64 {
	idx := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo < 0 {
		lo, hi = 0, 0
	}
	if hi >= len(s) {
		lo, hi = len(s)-1, len(s)-1
	}
	if lo == hi {
		return s[lo]
	}
	frac := idx - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}
