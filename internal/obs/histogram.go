package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of histogram buckets. Bucket i counts
// observations with d ≤ 1µs·2^i; the last bucket is the overflow
// (everything above ~2.1s). 23 fixed buckets span the whole range of
// interest — sub-microsecond copy-outs to multi-second backend
// invocations — with no allocation and no locking.
const histBuckets = 23

// bucketBound returns the inclusive upper bound of bucket i, or a
// negative duration for the overflow bucket.
func bucketBound(i int) time.Duration {
	if i < 0 || i >= histBuckets-1 {
		return -1
	}
	return time.Microsecond << i
}

// bucketIndex maps a duration to its bucket: the smallest i with
// d ≤ 1µs·2^i, clamped to the overflow bucket.
func bucketIndex(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	// Ceiling microseconds, then ceil(log2): Len64(x-1) is the smallest
	// i with x ≤ 2^i for x ≥ 1.
	us := (uint64(d) + 999) / 1000
	i := bits.Len64(us - 1)
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histogram is a fixed-bucket latency histogram safe for concurrent
// use: one atomic add per observation, power-of-two microsecond bucket
// bounds, running count and sum for the mean. The zero value is ready;
// all methods are nil-receiver safe.
type histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64
}

// observe records one duration.
//
//lint:hotpath
func (h *histogram) observe(d time.Duration) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.buckets[bucketIndex(d)].Add(1)
}

// snapshot captures the histogram for reporting. Concurrent Observes
// may straddle the capture; totals are exact once writers quiesce.
func (h *histogram) snapshot() histogramSnapshot {
	var s histogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.SumNS = h.sum.Load()
	if s.Count > 0 {
		s.MeanNS = s.SumNS / s.Count
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		s.Buckets = append(s.Buckets, bucket{LeNS: int64(bucketBound(i)), Count: n})
	}
	s.P50NS = s.quantile(0.50)
	s.P90NS = s.quantile(0.90)
	s.P99NS = s.quantile(0.99)
	return s
}

// histogramSnapshot is the JSON form of a histogram: cumulative count
// and sum, approximate quantiles, and the non-empty buckets.
type histogramSnapshot struct {
	Count   int64    `json:"count"`
	SumNS   int64    `json:"sum_ns"`
	MeanNS  int64    `json:"mean_ns"`
	P50NS   int64    `json:"p50_ns"`
	P90NS   int64    `json:"p90_ns"`
	P99NS   int64    `json:"p99_ns"`
	Buckets []bucket `json:"buckets,omitempty"`
}

// bucket is one non-empty histogram bucket. LeNS is the inclusive
// upper bound in nanoseconds; -1 marks the overflow bucket.
type bucket struct {
	LeNS  int64 `json:"le_ns"`
	Count int64 `json:"count"`
}

// quantile returns the q-quantile as the upper bound of the bucket
// where the cumulative count crosses q·total — an over-estimate by at
// most one bucket width (a factor of two), which is the precision the
// fixed power-of-two layout buys. The overflow bucket reports -1
// (unbounded).
func (s histogramSnapshot) quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			return b.LeNS
		}
	}
	return -1
}
