package metrics

import (
	"math/bits"

	"repro/internal/sim"
)

// Histogram bucket layout: log-linear, the HDR-histogram shape. Values
// below subCount land in exact unit buckets; above that, each power-of-two
// octave splits into subCount sub-buckets, giving a worst-case relative
// error of 1/subCount (25% with 2 sub-bits) while keeping the bucket count
// fixed and the Observe path branch-light. 248 buckets cover the full
// non-negative int64 range, so a histogram is a flat 2 KiB array — cheap
// enough to scatter through the datapath.
const (
	histSubBits  = 2
	histSubCount = 1 << histSubBits
	// NumBuckets is the fixed bucket count of every histogram.
	NumBuckets = (63-histSubBits)*histSubCount + histSubCount
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	msb := 63 - bits.LeadingZeros64(uint64(v))
	sub := int(uint64(v) >> uint(msb-histSubBits) & (histSubCount - 1))
	return (msb-histSubBits)*histSubCount + sub + histSubCount
}

// BucketUpper returns the largest value bucket i holds (inclusive).
func BucketUpper(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	oct := (i - histSubCount) / histSubCount // msb - histSubBits
	sub := (i - histSubCount) % histSubCount
	msb := oct + histSubBits
	lower := int64(1)<<uint(msb) + int64(sub)<<uint(msb-histSubBits)
	return lower + int64(1)<<uint(msb-histSubBits) - 1
}

// Histogram is a fixed-bucket log-scale distribution over simulated
// durations. Observe is allocation-free; negative durations clamp to zero
// (they indicate a model bug but must not corrupt the distribution).
type Histogram struct {
	name    string
	count   uint64
	sum     int64
	min     int64
	max     int64
	buckets [NumBuckets]uint64
}

// Observe records one duration. No-op on a nil histogram.
func (h *Histogram) Observe(d sim.Duration) {
	if h == nil {
		return
	}
	v := int64(d)
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketIndex(v)]++
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() sim.Duration {
	if h == nil {
		return 0
	}
	return sim.Duration(h.max)
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() sim.Duration {
	if h == nil || h.count == 0 {
		return 0
	}
	return sim.Duration(h.sum / int64(h.count))
}

// Quantile returns the value at quantile p in (0, 1]: the upper bound of
// the bucket holding the ceil(p*count)-th smallest observation, clamped to
// the observed [min, max] so single-valued distributions report exactly.
// Returns 0 when empty.
func (h *Histogram) Quantile(p float64) sim.Duration {
	if h == nil || h.count == 0 {
		return 0
	}
	if p <= 0 {
		return sim.Duration(h.min)
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(p * float64(h.count))
	if float64(rank) < p*float64(h.count) {
		rank++
	}
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += h.buckets[i]
		if cum >= rank {
			v := BucketUpper(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return sim.Duration(v)
		}
	}
	return sim.Duration(h.max)
}
