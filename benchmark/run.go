package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Load shape. Closed loop: the middleware is called synchronously by an
// application that waits for the reply, so each client issues its next
// operation when the previous one returns, with no think time. Latency
// is the distance between consecutive completions, one clock read per
// operation, and therefore includes the consumer's check of the
// response.
const (
	slicesPerRun = 5 // each end-to-end value is the median over this many slices
	setupRepeats = 3 // set-ups per end-to-end run; setup_s is their median
)

// sliceResult is what one timed slice measured.
type sliceResult struct {
	elapsed     time.Duration
	ops, failed int64
	hist        Hist
	mallocs     uint64
	allocBytes  uint64
}

// runner drives one instance; client positions persist across slices so
// cyclic scans and never-repeating sequences carry on where they were.
type runner struct {
	in     *instance
	ctxs   []context.Context
	traces []*clientTrace // nil when tracing is off
	pos    []int
	hists  []Hist
}

func newRunner(in *instance, traces []*clientTrace) *runner {
	r := &runner{
		in:     in,
		ctxs:   make([]context.Context, in.clients),
		traces: traces,
		pos:    make([]int, in.clients),
		hists:  make([]Hist, in.clients),
	}
	for c := range r.ctxs {
		r.ctxs[c] = in.env.ctx
		if traces != nil {
			r.ctxs[c] = withClientTrace(in.env.ctx, traces[c])
		}
	}
	return r
}

// client runs client c until the deadline (ns since benchEpoch) or for
// maxOps operations, whichever comes first.
func (r *runner) client(c int, deadline int64, maxOps int, h *Hist) (ops, failed int64) {
	ctx, op, i := r.ctxs[c], r.in.op, r.pos[c]
	var ct *clientTrace
	if r.traces != nil {
		ct = r.traces[c]
	}
	prev := nanos()
	for prev < deadline && ops < int64(maxOps) {
		var root uint32
		if ct != nil {
			root = ct.beginRoot()
		}
		ok := op(ctx, c, i)
		now := nanos()
		if ct != nil {
			ct.endRoot(root, prev, now)
		}
		h.Record(now - prev)
		prev = now
		i++
		ops++
		if !ok {
			failed++
		}
	}
	r.pos[c] = i
	return ops, failed
}

// slice runs every client for d (or maxOps operations each) and reads
// the allocator counters on either side. ReadMemStats stops the world,
// which is why it is called between slices and never inside one.
func (r *runner) slice(d time.Duration, maxOps int) sliceResult {
	type tally struct{ ops, failed int64 }
	tallies := make([]tally, r.in.clients)
	var before, after runtime.MemStats
	var wg sync.WaitGroup
	runtime.ReadMemStats(&before)
	start := nanos()
	deadline := start + int64(d)
	for c := 0; c < r.in.clients; c++ {
		r.hists[c].Reset()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tallies[c].ops, tallies[c].failed = r.client(c, deadline, maxOps, &r.hists[c])
		}(c)
	}
	wg.Wait()
	elapsed := nanos() - start
	runtime.ReadMemStats(&after)

	res := sliceResult{
		elapsed:    time.Duration(elapsed),
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
	}
	for c := range tallies {
		res.ops += tallies[c].ops
		res.failed += tallies[c].failed
		res.hist.Merge(&r.hists[c])
	}
	return res
}

// ready is a set-up instance with its runner, and how long set-up took.
type ready struct {
	in     *instance
	run    *runner
	setupS float64
}

// setUp builds the stack, seeds it and warms it: a fixed number of
// operations per client (so that set-up time measures work, not a
// timer), long enough for the adaptive selector to have probed and the
// connection pools to have grown, then a collection so the timed phase
// starts from a settled heap.
func setUp(w *workload, p params) (*ready, error) {
	start := time.Now()
	if p.tr != nil {
		// mixed_rw runs two processes whatever the client count.
		p.traces = make([]*clientTrace, max(p.clients, 2))
		for c := range p.traces {
			p.traces[c] = &clientTrace{t: p.tr, client: int8(c)}
		}
	}
	in, err := w.setup(p)
	if err != nil {
		if in != nil {
			in.env.close()
		}
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	run := newRunner(in, p.traces)
	if warm := run.slice(time.Hour, in.warm); warm.failed > 0 {
		in.env.close()
		return nil, fmt.Errorf("%s: %d of %d warm-up operations failed", w.name, warm.failed, warm.ops)
	}
	runtime.GC()
	return &ready{in: in, run: run, setupS: time.Since(start).Seconds()}, nil
}

// phase is one measured run of slices over a ready instance.
type phase struct {
	slices []sliceResult
	delta  counts // public counters over the phase
	all    Hist   // every slice merged, for the tail
	ops    int64
	failed int64 // failed operations plus aggregate outcomes that were wrong
}

func (rd *ready) measure(n int, d time.Duration) phase {
	ph := phase{slices: make([]sliceResult, n)}
	before := rd.in.snapshot()
	for i := range ph.slices {
		ph.slices[i] = rd.run.slice(d, 1<<62)
		ph.ops += ph.slices[i].ops
		ph.failed += ph.slices[i].failed
		ph.all.Merge(&ph.slices[i].hist)
	}
	ph.delta = rd.in.snapshot().since(before)
	ph.failed += rd.in.wrong(ph.delta, ph.ops)
	if ph.failed > ph.ops {
		ph.failed = ph.ops
	}
	return ph
}

// ballast stands for the heap of the application the middleware runs
// inside. Without it the benchmark process has well under a megabyte
// live on the hit workloads, the collector runs every 4 MB allocated —
// hundreds of cycles a second — and throughput measures collector
// frequency: a change that shrank the cache would score as slower, and
// the tracer's 5 MB ring made traced runs faster than untraced ones.
// 64 MiB without pointers costs nothing to mark and puts cycle
// frequency where a server process has it.
var ballast []byte

const ballastBytes = 64 << 20

func holdBallast() { ballast = make([]byte, ballastBytes) }

// heapLiveMB is the heap still reachable after a collection, net of the
// ballast: caches, pools and the benchmark's own pre-generated inputs.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return (float64(ms.HeapAlloc) - float64(len(ballast))) / (1 << 20)
}

// calibrate measures the harness itself: the closed loop around an
// operation that does nothing. Its cost is in every latency sample and
// its allocations (which must be zero) in every allocs_per_op.
func calibrate(clients int) (overheadNS, allocsPerOp float64) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := &instance{
		env:     &env{ctx: ctx},
		clients: clients,
		op:      func(context.Context, int, int) bool { return true },
	}
	run := newRunner(in, nil)
	run.slice(20*time.Millisecond, 1<<62)
	res := run.slice(200*time.Millisecond, 1<<62)
	return res.hist.Quantile(0.5), float64(res.mallocs) / float64(res.ops)
}
