package obs

import (
	"testing"
	"time"
)

func TestBucketIndexBoundaries(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Nanosecond, 0},
		{time.Microsecond, 0},                           // exactly the bucket-0 bound
		{time.Microsecond + time.Nanosecond, 1},         // just over bound 0
		{2 * time.Microsecond, 1},                       // exactly bound 1
		{2*time.Microsecond + time.Nanosecond, 2},       // just over bound 1
		{3 * time.Microsecond, 2},                       // inside bucket 2
		{4 * time.Microsecond, 2},                       // exactly bound 2
		{1024 * time.Microsecond, 10},                   // exactly bound 10 (~1ms)
		{1025 * time.Microsecond, 11},                   // just over bound 10
		{time.Second, 20},                               // 1s ≤ 1µs·2^20 ≈ 1.05s
		{2 * time.Second, 21},                           // ≤ 1µs·2^21 ≈ 2.1s
		{3 * time.Second, histBuckets - 1},              // overflow
		{time.Hour, histBuckets - 1},                    // deep overflow
		{-time.Microsecond, 0},                          // negative clamps to 0
		{bucketBound(5), 5},                             // every bound maps to its own bucket
		{bucketBound(5) + time.Nanosecond, 6},           // and one past it to the next
		{bucketBound(histBuckets - 2), histBuckets - 2}, // last bounded bucket
		{bucketBound(histBuckets-2) + 1, histBuckets - 1},
	}
	for _, tc := range tests {
		if got := bucketIndex(tc.d); got != tc.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestBucketBound(t *testing.T) {
	if got := bucketBound(0); got != time.Microsecond {
		t.Errorf("BucketBound(0) = %v, want 1µs", got)
	}
	if got := bucketBound(10); got != 1024*time.Microsecond {
		t.Errorf("BucketBound(10) = %v, want 1.024ms", got)
	}
	for _, i := range []int{-1, histBuckets - 1, histBuckets} {
		if got := bucketBound(i); got >= 0 {
			t.Errorf("BucketBound(%d) = %v, want negative (overflow)", i, got)
		}
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h histogram
	for i := 0; i < 90; i++ {
		h.observe(time.Microsecond) // bucket 0
	}
	for i := 0; i < 10; i++ {
		h.observe(time.Millisecond) // bucket 10
	}
	s := h.snapshot()
	if s.Count != 100 {
		t.Fatalf("Count = %d, want 100", s.Count)
	}
	wantSum := int64(90*time.Microsecond + 10*time.Millisecond)
	if s.SumNS != wantSum {
		t.Errorf("SumNS = %d, want %d", s.SumNS, wantSum)
	}
	if s.MeanNS != wantSum/100 {
		t.Errorf("MeanNS = %d, want %d", s.MeanNS, wantSum/100)
	}
	// p50 and p90 land in bucket 0 (90% of samples), p99 in bucket 10;
	// quantiles report the crossing bucket's upper bound.
	if want := int64(time.Microsecond); s.P50NS != want || s.P90NS != want {
		t.Errorf("P50/P90 = %d/%d, want both %d", s.P50NS, s.P90NS, want)
	}
	if want := int64(1024 * time.Microsecond); s.P99NS != want {
		t.Errorf("P99NS = %d, want %d", s.P99NS, want)
	}
	if len(s.Buckets) != 2 {
		t.Errorf("non-empty buckets = %d, want 2", len(s.Buckets))
	}
}

func TestHistogramOverflowQuantile(t *testing.T) {
	var h histogram
	h.observe(time.Hour)
	s := h.snapshot()
	if s.P50NS != -1 {
		t.Errorf("overflow P50NS = %d, want -1 (unbounded)", s.P50NS)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *histogram
	h.observe(time.Second) // must not panic
	if h.snapshot().Count != 0 {
		t.Error("nil histogram Count != 0")
	}
	if s := h.snapshot(); s.Count != 0 || len(s.Buckets) != 0 {
		t.Error("nil histogram snapshot not empty")
	}
}
