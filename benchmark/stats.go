package main

import (
	"math"
	"sort"
)

// summary is the distribution of one metric's samples: the median is the
// reported value; quartiles, extremes and the count go with it.
type summary struct {
	Median float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// quantile interpolates linearly between order statistics (the "inclusive"
// method); sorted must be ascending and non-empty.
func quantile(sorted []float64, p float64) float64 {
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// tail is the highest percentile with at least ten samples beyond it: p90
// from 100 samples on, the maximum below that.
func tail(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) < 100 {
		return sorted[len(sorted)-1]
	}
	return quantile(sorted, 0.9)
}
