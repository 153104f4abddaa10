package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refQuantile is the obviously-correct reference: the value at rank
// ceil(q·n) of the sorted samples.
func refQuantile(sorted []int64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func TestHistMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() int64{
		// Log-uniform from 1 ns to ~1 s: every octave the benchmark sees.
		"loguniform": func() int64 { return int64(math.Exp(rng.Float64() * math.Log(1e9))) },
		// An L1 hit: tight mode with a long tail.
		"hit": func() int64 {
			if rng.Intn(100) == 0 {
				return 5000 + rng.Int63n(200000)
			}
			return 300 + rng.Int63n(80)
		},
		"tiny": func() int64 { return rng.Int63n(20) },
	}
	for name, draw := range dists {
		var h Hist
		samples := make([]int64, 200000)
		for i := range samples {
			samples[i] = draw()
			h.Record(samples[i])
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		if h.Count() != uint64(len(samples)) {
			t.Fatalf("%s: count %d, want %d", name, h.Count(), len(samples))
		}
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
			got, want := h.Quantile(q), refQuantile(samples, q)
			// One bucket is at most 1/16 of the value wide, and 1 ns at
			// the floor.
			if tol := want/16 + 1; math.Abs(got-want) > tol {
				t.Errorf("%s: q%.3f = %.1f, reference %.0f (tolerance %.1f)", name, q, got, want, tol)
			}
		}
	}
}

func TestHistBucketsCoverEveryValue(t *testing.T) {
	prevHi := uint64(0)
	for idx := 0; idx < histBuckets; idx++ {
		lo, hi := bucketBounds(idx)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", idx, lo, prevHi)
		}
		if bucketOf(lo) != idx || bucketOf(hi-1) != idx {
			t.Fatalf("bucket %d [%d,%d) does not hold its own bounds", idx, lo, hi)
		}
		if idx >= histSub && (hi-lo)*16 > lo {
			t.Fatalf("bucket %d [%d,%d) is wider than 1/16 of its values", idx, lo, hi)
		}
		prevHi = hi
	}
	if got := bucketOf(math.MaxUint64); got != histBuckets-1 {
		t.Fatalf("huge value lands in bucket %d, want the last", got)
	}
}

func TestHistMergeAndBeyond(t *testing.T) {
	var a, b, all Hist
	for i := int64(0); i < 1000; i++ {
		v := i * 37 % 5000
		all.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a != all {
		t.Fatal("merging two halves differs from recording everything in one histogram")
	}
	if got := all.Beyond(0.99); got != 10 {
		t.Fatalf("samples beyond p99 of 1000 = %d, want 10", got)
	}
	all.Record(-5)
	if all.Quantile(0) != 0 {
		t.Fatal("a negative sample must count as zero")
	}
}

func TestHistRecordDoesNotAllocate(t *testing.T) {
	var h Hist
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() { h.Record(v); v = v*3 + 1 }); n != 0 {
		t.Fatalf("Record allocates %.1f times per call", n)
	}
}
