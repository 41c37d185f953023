package stats

import (
	"math/bits"

	"github.com/easyio-sim/easyio/internal/sim"
)

// Hist is a mergeable log-bucketed latency histogram. Recorder stores
// every sample and sorts on demand, which is exact but unsuitable for
// serving runs with millions of requests; Hist folds each sample into a
// fixed bucket array (no per-sample allocation) at the cost of a bounded
// relative quantile error.
//
// Bucketing follows the HDR scheme: values below 2^histSubBits land in
// exact unit buckets; above that, each power-of-two octave is divided
// into 2^histSubBits sub-buckets, so the relative resolution is
// 2^-histSubBits (~1.6%) everywhere. Percentile answers the upper bound
// of the selected bucket, so reported quantiles never understate the
// true nearest-rank value.
//
// The zero value is ready to use, and Hist is a plain value: embed it
// directly (no pointer indirection, no heap growth during a run).
type Hist struct {
	counts [histBuckets]int64
	count  int64
	sum    int64
	max    sim.Duration
	min    sim.Duration
}

const (
	// histSubBits fixes the per-octave resolution (2^6 = 64 sub-buckets,
	// ~1.6% relative error).
	histSubBits = 6
	// histBuckets covers every non-negative int64: one linear region of
	// 2^histSubBits unit buckets plus one region of 2^histSubBits
	// sub-buckets per octave for exponents histSubBits..62.
	histBuckets = (64 - histSubBits) << histSubBits
)

// histIndex maps a non-negative value to its bucket.
func histIndex(v sim.Duration) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // floor(log2 v), in [histSubBits, 62]
	sub := int(v>>(exp-histSubBits)) & (1<<histSubBits - 1)
	return (exp-histSubBits+1)<<histSubBits + sub
}

// histUpper returns the largest value mapping to bucket i (the inclusive
// upper bound Percentile reports).
func histUpper(i int) sim.Duration {
	if i < 1<<histSubBits {
		return sim.Duration(i)
	}
	exp := i>>histSubBits + histSubBits - 1
	sub := sim.Duration(i & (1<<histSubBits - 1))
	return ((sub + (1 << histSubBits) + 1) << (exp - histSubBits)) - 1
}

// Add records one sample. Negative samples clamp to zero (virtual-time
// latencies are never negative; clamping keeps the bucket math total).
//
//easyio:hotpath (one call per completed request)
func (h *Hist) Add(d sim.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(d)]++
	h.count++
	h.sum += int64(d)
	if d > h.max {
		h.max = d
	}
	if h.count == 1 || d < h.min {
		h.min = d
	}
}

// Count reports the number of recorded samples.
func (h *Hist) Count() int64 { return h.count }

// Sum reports the exact sample total.
func (h *Hist) Sum() sim.Duration { return sim.Duration(h.sum) }

// Mean returns the exact average sample, or 0 with no samples.
func (h *Hist) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return sim.Duration(h.sum / h.count)
}

// Max returns the exact largest sample.
func (h *Hist) Max() sim.Duration { return h.max }

// Min returns the exact smallest sample, or 0 with no samples.
func (h *Hist) Min() sim.Duration { return h.min }

// Percentile returns the p-th percentile (0 < p <= 100) by nearest rank
// over the buckets, reported as the selected bucket's upper bound. The
// exact min and max are substituted at the extremes so P0/P100 are exact.
func (h *Hist) Percentile(p float64) sim.Duration {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	rank := int64(p/100*float64(h.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank >= h.count {
		return h.max
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			u := histUpper(i)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// P50, P99, P999, P9999 are convenience accessors for the tail quantiles
// serving SLOs are written against.
func (h *Hist) P50() sim.Duration   { return h.Percentile(50) }
func (h *Hist) P99() sim.Duration   { return h.Percentile(99) }
func (h *Hist) P999() sim.Duration  { return h.Percentile(99.9) }
func (h *Hist) P9999() sim.Duration { return h.Percentile(99.99) }

// Merge folds other into h. Bucket counts add exactly, so merging
// per-shard histograms is equivalent to recording every sample into one.
func (h *Hist) Merge(other *Hist) {
	if other.count == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset discards all samples.
func (h *Hist) Reset() { *h = Hist{} }

// Buckets calls fn for every non-empty bucket in ascending value order
// with the bucket's inclusive upper bound and count (digest/export hook).
func (h *Hist) Buckets(fn func(upper sim.Duration, count int64)) {
	for i, c := range h.counts {
		if c != 0 {
			fn(histUpper(i), c)
		}
	}
}
