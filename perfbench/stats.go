package main

import (
	"math"
	"sort"
	"time"
)

// sample is a set of timings or other observations of one quantity.
type sample []float64

func (s sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile interpolates linearly between closest ranks (q in [0,1]);
// NaN for an empty sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := s.sorted()
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s sample) median() float64 { return s.quantile(0.5) }

// tailPercentiles are the candidate tail percentiles, highest last.
var tailPercentiles = []float64{75, 90, 95, 99, 99.9}

// tail returns the highest percentile in tailPercentiles that has at
// least ten samples beyond it, and its nearest-rank value. ok is false
// when the sample is too small for any of them.
func (s sample) tail() (pct, value float64, ok bool) {
	c := s.sorted()
	n := len(c)
	for i := len(tailPercentiles) - 1; i >= 0; i-- {
		p := tailPercentiles[i]
		// 1-based nearest rank; the epsilon absorbs float error in
		// p/100·n (99.9 % of 10000 must be rank 9990, not 9991).
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if rank < 1 || n-rank < 10 {
			continue
		}
		return p, c[rank-1], true
	}
	return 0, 0, false
}

func secs(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
