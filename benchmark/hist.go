package main

import "math/bits"

// The benchmark owns its latency histogram because obs.Histogram floors
// at 1 µs, below which every L1 hit lands in bucket 0. This one is
// log-linear: values under 16 ns get one bucket each, every octave
// above is cut into 16 equal sub-buckets, so a bucket is never wider
// than 1/16 of the values it holds.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	// histOctaves octaves above the linear range reach 2^44 ns ≈ 4.9 h;
	// anything slower is clamped into the last bucket.
	histOctaves = 40
	histBuckets = histSub + histOctaves*histSub
)

// Hist is a fixed-size latency histogram over nanosecond values. The
// zero value is ready; Record never allocates. A Hist is owned by one
// goroutine while recording and merged afterwards.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // ≥ histSubBits
	idx := (exp-histSubBits+1)*histSub + int((v>>(exp-histSubBits))&(histSub-1))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketBounds returns the half-open value range [lo, hi) of a bucket.
func bucketBounds(idx int) (lo, hi uint64) {
	if idx < histSub {
		return uint64(idx), uint64(idx) + 1
	}
	exp := idx/histSub + histSubBits - 1
	width := uint64(1) << (exp - histSubBits)
	lo = uint64(1)<<exp + uint64(idx%histSub)*width
	return lo, lo + width
}

// Record adds one sample; negative values count as zero.
func (h *Hist) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

// Merge adds o's samples into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Reset clears the histogram for reuse.
func (h *Hist) Reset() { *h = Hist{} }

// Count returns the number of samples recorded.
func (h *Hist) Count() uint64 { return h.n }

// Quantile returns the value at quantile q in [0, 1], interpolating by
// rank inside the bucket that holds it, so two runs whose samples fall
// in the same bucket still report the (slightly different) values they
// measured. It returns 0 for an empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank <= cum+float64(c) {
			lo, hi := bucketBounds(i)
			return float64(lo) + float64(hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	_, hi := bucketBounds(histBuckets - 1)
	return float64(hi)
}

// Beyond returns how many samples lie above quantile q: the sample
// count a tail percentile must be read with.
func (h *Hist) Beyond(q float64) uint64 {
	return h.n - uint64(q*float64(h.n))
}
