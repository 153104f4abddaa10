package loadgen

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleExactRatio(t *testing.T) {
	hot := []string{"h1", "h2"}
	miss := func(i int) string { return fmt.Sprintf("m%d", i) }

	for _, ratio := range []float64{0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0} {
		qs, _ := mixedSchedule(100, ratio, 0, hot, miss)
		hits := 0
		for _, q := range qs {
			if strings.HasPrefix(q, "h") {
				hits++
			}
		}
		want := int(ratio * 100)
		if hits < want-1 || hits > want+1 {
			t.Errorf("ratio %.1f: %d hits, want ≈%d", ratio, hits, want)
		}
	}
}

func TestScheduleMissesUnique(t *testing.T) {
	qs, _ := mixedSchedule(50, 0.5, 0, []string{"hot"}, func(i int) string { return fmt.Sprintf("m%d", i) })
	seen := map[string]int{}
	for _, q := range qs {
		seen[q]++
	}
	for q, n := range seen {
		if strings.HasPrefix(q, "m") && n != 1 {
			t.Errorf("miss query %q appears %d times", q, n)
		}
	}
}

func TestScheduleInterleaved(t *testing.T) {
	// At 50% the schedule must alternate, not front-load.
	qs, _ := mixedSchedule(10, 0.5, 0, []string{"h"}, func(i int) string { return "m" })
	firstHalfHits := 0
	for _, q := range qs[:5] {
		if q == "h" {
			firstHalfHits++
		}
	}
	if firstHalfHits < 2 || firstHalfHits > 3 {
		t.Errorf("hits not interleaved: first half has %d", firstHalfHits)
	}
}

func TestRunCountsAndThroughput(t *testing.T) {
	var calls int64
	res, err := RunContext(context.Background(), Config{
		Concurrency: 4,
		Requests:    200,
		HitRatio:    0.5,
		HotQueries:  []string{"hot"},
		MissQuery:   func(i int) string { return fmt.Sprintf("m%d", i) },
		Do: func(string) error {
			atomic.AddInt64(&calls, 1)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&calls) != 200 || res.Requests != 200 {
		t.Errorf("calls = %d, requests = %d", atomic.LoadInt64(&calls), res.Requests)
	}
	if res.Throughput <= 0 || res.Elapsed <= 0 {
		t.Errorf("throughput = %v, elapsed = %v", res.Throughput, res.Elapsed)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d", res.Errors)
	}
}

func TestRunErrorsCounted(t *testing.T) {
	boom := errors.New("x")
	res, err := RunContext(context.Background(), Config{
		Concurrency: 2,
		Requests:    10,
		HitRatio:    0,
		MissQuery:   func(i int) string { return fmt.Sprint(i) },
		Do: func(q string) error {
			if q == "3" {
				return boom
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 1 {
		t.Errorf("errors = %d", res.Errors)
	}
}

func TestRunConcurrencyActuallyParallel(t *testing.T) {
	var mu sync.Mutex
	active, peak := 0, 0
	res, err := RunContext(context.Background(), Config{
		Concurrency: 8,
		Requests:    64,
		HitRatio:    1,
		HotQueries:  []string{"h"},
		Do: func(string) error {
			mu.Lock()
			active++
			if active > peak {
				peak = active
			}
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			active--
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak < 2 {
		t.Errorf("peak concurrency = %d, want > 1", peak)
	}
	if res.AvgLatency <= 0 || res.P50 <= 0 || res.P90 < res.P50 {
		t.Errorf("latency stats inconsistent: %+v", res)
	}
}

func TestRunValidation(t *testing.T) {
	base := Config{
		Concurrency: 1,
		Requests:    1,
		Do:          func(string) error { return nil },
		MissQuery:   func(int) string { return "m" },
	}

	bad := base
	bad.Concurrency = 0
	if _, err := RunContext(context.Background(), bad); err == nil {
		t.Error("zero concurrency accepted")
	}
	bad = base
	bad.Requests = 0
	if _, err := RunContext(context.Background(), bad); err == nil {
		t.Error("zero requests accepted")
	}
	bad = base
	bad.HitRatio = 1.5
	if _, err := RunContext(context.Background(), bad); err == nil {
		t.Error("ratio > 1 accepted")
	}
	bad = base
	bad.Do = nil
	if _, err := RunContext(context.Background(), bad); err == nil {
		t.Error("nil Do accepted")
	}
	bad = base
	bad.HitRatio = 0.5
	bad.HotQueries = nil
	if _, err := RunContext(context.Background(), bad); err == nil {
		t.Error("hits without hot queries accepted")
	}
	bad = base
	bad.MissQuery = nil
	if _, err := RunContext(context.Background(), bad); err == nil {
		t.Error("misses without MissQuery accepted")
	}
}

func TestResultString(t *testing.T) {
	r := result{Requests: 10, Elapsed: time.Second, Throughput: 10, AvgLatency: time.Millisecond}
	if !strings.Contains(r.String(), "10 req") {
		t.Errorf("String() = %q", r.String())
	}
}

func TestPercentileEdges(t *testing.T) {
	if percentile(nil, 0.5) != 0 {
		t.Error("empty percentile not zero")
	}
	s := []time.Duration{1, 2, 3, 4, 5}
	if percentile(s, 0) != 1 || percentile(s, 1.0) != 5 {
		t.Error("percentile bounds wrong")
	}
}

func TestMixedScheduleWriteRatio(t *testing.T) {
	hot := []string{"h1", "h2"}
	miss := func(i int) string { return fmt.Sprintf("m%d", i) }

	qs, ws := mixedSchedule(100, 0.5, 0.2, hot, miss)
	writes, hits := 0, 0
	for i, q := range qs {
		if ws[i] {
			writes++
			if !strings.HasPrefix(q, "h") {
				t.Errorf("write %d targets %q, want a hot query", i, q)
			}
		} else if strings.HasPrefix(q, "h") {
			hits++
		}
	}
	if writes < 19 || writes > 21 {
		t.Errorf("%d writes, want ≈20", writes)
	}
	if hits < 38 || hits > 42 {
		t.Errorf("%d hits, want ≈40", hits)
	}
	// Writes must be spread out, not front-loaded.
	firstHalf := 0
	for i := 0; i < 50; i++ {
		if ws[i] {
			firstHalf++
		}
	}
	if firstHalf < 8 || firstHalf > 12 {
		t.Errorf("writes not interleaved: first half has %d", firstHalf)
	}
}

func TestRunMixedWrites(t *testing.T) {
	var reads, writes int64
	res, err := RunContext(context.Background(), Config{
		Concurrency: 4,
		Requests:    200,
		HitRatio:    0.4,
		WriteRatio:  0.25,
		HotQueries:  []string{"h1", "h2", "h3"},
		MissQuery:   func(i int) string { return fmt.Sprintf("m%d", i) },
		Do:          func(string) error { atomic.AddInt64(&reads, 1); return nil },
		Write:       func(string) error { atomic.AddInt64(&writes, 1); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 200 {
		t.Errorf("Requests = %d, want 200", res.Requests)
	}
	if res.Writes != 50 || atomic.LoadInt64(&writes) != 50 {
		t.Errorf("Writes = %d (func saw %d), want 50", res.Writes, atomic.LoadInt64(&writes))
	}
	if atomic.LoadInt64(&reads) != 150 {
		t.Errorf("reads = %d, want 150", atomic.LoadInt64(&reads))
	}
	if !strings.Contains(res.String(), "50 writes") {
		t.Errorf("String() = %q, missing write count", res.String())
	}
}

func TestRunMixedValidation(t *testing.T) {
	base := Config{
		Concurrency: 1,
		Requests:    10,
		HotQueries:  []string{"h"},
		MissQuery:   func(i int) string { return "m" },
		Do:          func(string) error { return nil },
	}
	for name, mutate := range map[string]func(*Config){
		"write ratio out of range": func(c *Config) { c.WriteRatio = 1.5 },
		"ratios exceed one":        func(c *Config) { c.HitRatio, c.WriteRatio = 0.8, 0.3 },
		"write func missing":       func(c *Config) { c.WriteRatio = 0.2; c.Write = nil },
		"hot queries missing":      func(c *Config) { c.WriteRatio = 0.2; c.Write = func(string) error { return nil }; c.HotQueries = nil },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := RunContext(context.Background(), cfg); err == nil {
			t.Errorf("%s: Run accepted invalid config", name)
		}
	}
}
