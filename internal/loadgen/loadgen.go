// Package loadgen is the load simulator for the portal-site scenario
// (paper Section 5.2, "Web Performance Tool"): a closed-loop generator
// with a configurable number of concurrent virtual users and an
// artificially controlled cache-hit ratio, swept 0–100% in the paper's
// Figures 3 and 4. For resilience scenarios it also supports
// context-cancelled shutdown mid-run and per-class failure accounting
// (errors bucketed by a caller-supplied classifier, e.g. breaker
// rejections vs timeouts vs degraded stale serves).
package loadgen

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Config drives one load run.
type Config struct {
	// Concurrency is the number of virtual users. 1 reproduces the
	// paper's "without concurrent access" setup (Figure 3); 25 the
	// concurrent one (Figure 4).
	Concurrency int

	// Requests is the total number of requests to issue.
	Requests int

	// HitRatio in [0,1] is the fraction of requests that reuse a hot
	// query (one the cache has already stored). The schedule is
	// deterministic: exactly ⌊Requests·HitRatio⌋ requests are hits,
	// evenly interleaved.
	HitRatio float64

	// HotQueries are the pre-warmed queries reused by hit requests.
	HotQueries []string

	// MissQuery produces a unique query for the i-th miss.
	MissQuery func(i int) string

	// Do performs one request. It receives the query chosen by the
	// schedule.
	Do func(query string) error

	// WriteRatio in [0,1] is the fraction of requests that are writes
	// against a hot query, for mixed read/write profiles exercising
	// write-through invalidation. Writes are carved out of the schedule
	// first, evenly interleaved, cycling through HotQueries; the
	// remaining requests follow HitRatio as usual. HitRatio+WriteRatio
	// must not exceed 1.
	WriteRatio float64

	// Write performs one write request for the hot query chosen by the
	// schedule. Required when WriteRatio > 0.
	Write func(query string) error

	// Classify buckets a request error into a named class for
	// result.Classes — failure-scenario runs separate breaker
	// rejections from timeouts from injected faults. nil buckets every
	// error as "error".
	Classify func(error) string
}

// result aggregates a run.
type result struct {
	Requests   int
	Writes     int // write requests issued (mixed read/write profiles)
	Errors     int
	Skipped    int // scheduled requests never issued (cancelled run)
	Elapsed    time.Duration
	Throughput float64 // requests per second
	AvgLatency time.Duration
	P50        time.Duration
	P90        time.Duration
	P99        time.Duration
	// Classes counts errors per Config.Classify bucket.
	Classes map[string]int
}

// String formats the result as a report row.
func (r result) String() string {
	s := fmt.Sprintf("%d req in %v: %.1f req/s, avg %v, p50 %v, p90 %v, p99 %v, %d errors",
		r.Requests, r.Elapsed.Round(time.Millisecond), r.Throughput,
		r.AvgLatency.Round(time.Microsecond), r.P50.Round(time.Microsecond),
		r.P90.Round(time.Microsecond), r.P99.Round(time.Microsecond), r.Errors)
	if r.Writes > 0 {
		s += fmt.Sprintf(", %d writes", r.Writes)
	}
	if r.Skipped > 0 {
		s += fmt.Sprintf(", %d skipped", r.Skipped)
	}
	return s
}

// RunContext executes the configured load, stopping early when ctx is
// cancelled: no further requests are issued, in-flight requests finish,
// and the partial result is returned alongside ctx's error. Requests
// the schedule never issued are reported in result.Skipped and excluded
// from the latency aggregates.
func RunContext(ctx context.Context, cfg Config) (result, error) {
	if cfg.Concurrency <= 0 {
		return result{}, fmt.Errorf("loadgen: Concurrency must be positive")
	}
	if cfg.Requests <= 0 {
		return result{}, fmt.Errorf("loadgen: Requests must be positive")
	}
	if cfg.HitRatio < 0 || cfg.HitRatio > 1 {
		return result{}, fmt.Errorf("loadgen: HitRatio %v outside [0,1]", cfg.HitRatio)
	}
	if cfg.Do == nil {
		return result{}, fmt.Errorf("loadgen: Do is required")
	}
	if cfg.WriteRatio < 0 || cfg.WriteRatio > 1 {
		return result{}, fmt.Errorf("loadgen: WriteRatio %v outside [0,1]", cfg.WriteRatio)
	}
	if cfg.HitRatio+cfg.WriteRatio > 1+1e-9 {
		return result{}, fmt.Errorf("loadgen: HitRatio %v + WriteRatio %v exceeds 1", cfg.HitRatio, cfg.WriteRatio)
	}
	if (cfg.HitRatio > 0 || cfg.WriteRatio > 0) && len(cfg.HotQueries) == 0 {
		return result{}, fmt.Errorf("loadgen: HitRatio or WriteRatio > 0 requires HotQueries")
	}
	if cfg.WriteRatio > 0 && cfg.Write == nil {
		return result{}, fmt.Errorf("loadgen: WriteRatio > 0 requires Write")
	}
	if cfg.HitRatio+cfg.WriteRatio < 1 && cfg.MissQuery == nil {
		return result{}, fmt.Errorf("loadgen: HitRatio + WriteRatio < 1 requires MissQuery")
	}

	queries, writes := mixedSchedule(cfg.Requests, cfg.HitRatio, cfg.WriteRatio, cfg.HotQueries, cfg.MissQuery)

	latencies := make([]time.Duration, cfg.Requests)
	errs := make([]error, cfg.Requests)
	issued := make([]bool, cfg.Requests)
	var wg sync.WaitGroup
	work := make(chan int)

	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				t0 := time.Now()
				if writes[i] {
					errs[i] = cfg.Write(queries[i])
				} else {
					errs[i] = cfg.Do(queries[i])
				}
				latencies[i] = time.Since(t0)
				issued[i] = true
			}
		}()
	}
feed:
	for i := 0; i < cfg.Requests; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	res := aggregate(latencies, errs, issued, elapsed, cfg.Classify)
	for i, ok := range issued {
		if ok && writes[i] {
			res.Writes++
		}
	}
	return res, ctx.Err()
}

// mixedSchedule builds the deterministic request sequence for a mixed
// read/write profile. Writes are carved out first at writeRatio, evenly
// interleaved and cycling through the hot queries; the remaining slots
// are hits and misses at hitRatio.
func mixedSchedule(requests int, hitRatio, writeRatio float64, hot []string, miss func(int) string) ([]string, []bool) {
	queries := make([]string, requests)
	writes := make([]bool, requests)
	hits, misses, nwrites := 0, 0, 0
	acc, accW := 0.0, 0.0
	for i := 0; i < requests; i++ {
		accW += writeRatio
		if accW >= 1.0-1e-9 && len(hot) > 0 {
			accW -= 1.0
			queries[i] = hot[nwrites%len(hot)]
			writes[i] = true
			nwrites++
			continue
		}
		acc += hitRatio
		if acc >= 1.0-1e-9 && len(hot) > 0 {
			acc -= 1.0
			queries[i] = hot[hits%len(hot)]
			hits++
		} else {
			queries[i] = miss(misses)
			misses++
		}
	}
	return queries, writes
}

// aggregate folds per-request samples into a result, counting only
// requests the run actually issued.
func aggregate(latencies []time.Duration, errs []error, issued []bool, elapsed time.Duration, classify func(error) string) result {
	res := result{Elapsed: elapsed}
	var completed []time.Duration
	for i, ok := range issued {
		if !ok {
			res.Skipped++
			continue
		}
		res.Requests++
		completed = append(completed, latencies[i])
		if errs[i] != nil {
			res.Errors++
			class := "error"
			if classify != nil {
				class = classify(errs[i])
			}
			if res.Classes == nil {
				res.Classes = make(map[string]int)
			}
			res.Classes[class]++
		}
	}
	if elapsed > 0 {
		res.Throughput = float64(res.Requests) / elapsed.Seconds()
	}
	var total time.Duration
	for _, l := range completed {
		total += l
	}
	if len(completed) > 0 {
		res.AvgLatency = total / time.Duration(len(completed))
	}
	sort.Slice(completed, func(i, j int) bool { return completed[i] < completed[j] })
	res.P50 = percentile(completed, 0.50)
	res.P90 = percentile(completed, 0.90)
	res.P99 = percentile(completed, 0.99)
	return res
}

// percentile reads the p-quantile from sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
