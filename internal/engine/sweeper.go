package engine

import (
	"context"
	"sync"
	"time"
)

// Sweeper proactively reclaims expired entries on a fixed interval,
// bounding the memory held by entries that will never be asked for
// again. Without a sweeper, expired entries are reclaimed lazily when
// their key is next requested (or when LRU pressure evicts them), which
// is the paper's implicit behaviour; the sweeper is an operational
// extension for long-lived deployments.
//
// The goroutine's lifetime is owned by the Sweeper: Shutdown (or
// cancellation of the context given to NewSweeper) signals it to stop;
// Shutdown waits for it to exit.
type Sweeper struct {
	sweep    func() int
	interval time.Duration

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewSweeper starts a goroutine calling sweep (an Engine's or a front
// end's Sweep) every interval; a non-positive interval means a minute.
// The goroutine also exits when ctx is cancelled, for deployments that
// tie background work to a server's lifecycle context. Shutdown remains
// available and is idempotent; after cancellation it returns as soon as
// the goroutine has exited.
func NewSweeper(ctx context.Context, sweep func() int, interval time.Duration) *Sweeper {
	if interval <= 0 {
		interval = time.Minute
	}
	s := &Sweeper{
		sweep:    sweep,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go s.run(ctx)
	return s
}

// run is the sweep loop.
func (s *Sweeper) run(ctx context.Context) {
	defer close(s.done)
	ticker := time.NewTicker(s.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.sweep()
		case <-ctx.Done():
			return
		case <-s.stop:
			return
		}
	}
}

// Shutdown stops the sweeper and waits for its goroutine to exit. It is
// idempotent and safe to call after (or concurrently with) context
// cancellation.
func (s *Sweeper) Shutdown() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}
