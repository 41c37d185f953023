package main

import (
	"math"
	"sort"
)

// minBeyond is the sample rule for tail percentiles: a percentile is
// reported only if at least this many samples lie strictly beyond it.
const minBeyond = 10

// beyond returns how many of n samples lie strictly beyond the
// nearest-rank p-th percentile (rank = ceil(p/100 * n)).
func beyond(n int64, p float64) int64 {
	if n <= 0 {
		return 0
	}
	// The epsilon keeps float rounding (99.9/100*10000 = 9990.000...02)
	// from pushing an exact rank up by one.
	rank := int64(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return n - rank
}

// pctUsable reports whether the p-th percentile of n samples satisfies
// the sample rule.
func pctUsable(n int64, p float64) bool { return beyond(n, p) >= minBeyond }

// median returns the median of xs (mean of the middle pair for even
// lengths); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// geomean returns the geometric mean of positive xs; NaN if any value is
// not positive or xs is empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// paperRef is one reference value from EXPERIMENTS.md's "Paper" column.
type paperRef struct {
	name     string
	paper    float64
	measured float64
}

// paperErr is the mean |measured / paper - 1| over refs.
func paperErr(refs []paperRef) float64 {
	if len(refs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, r := range refs {
		sum += math.Abs(r.measured/r.paper - 1)
	}
	return sum / float64(len(refs))
}

// ladderStep is one load step's outcome for the capacity rule.
type ladderStep struct {
	load       float64
	webP99OK   bool  // latency-critical p99 within its SLO
	refused    int64 // shed, over all tenants
	unfinished int64 // admitted but not completed, over all tenants
}

// capacityLoad is the highest ladder step at which the latency-critical
// tenant meets its p99 SLO and no tenant has any refused or unfinished
// request; 0 if no step qualifies.
func capacityLoad(steps []ladderStep) float64 {
	best := 0.0
	for _, s := range steps {
		if s.webP99OK && s.refused == 0 && s.unfinished == 0 && s.load > best {
			best = s.load
		}
	}
	return best
}

// coresAtPeak returns the fewest cores whose throughput reaches frac of
// the peak over the sweep (the Fig 9 cores-at-peak rule), with the peak.
func coresAtPeak(cores []int, thr []float64, frac float64) (int, float64) {
	peak := 0.0
	for _, t := range thr {
		if t > peak {
			peak = t
		}
	}
	best := 0
	for i, t := range thr {
		if t >= frac*peak && (best == 0 || cores[i] < best) {
			best = cores[i]
		}
	}
	return best, peak
}
