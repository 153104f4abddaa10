package engine

import "context"

// Flight is one in-flight miss on a key that later misses of the same
// key can wait on instead of invoking the backend themselves.
type Flight struct {
	done chan struct{} // closed when the leader lands
	// Err is the leader's outcome. The leader writes it before Land;
	// followers read it after Wait returns nil.
	Err error
}

// Join enters the flight for k. The first miss becomes the leader
// (leader is true): it must do the work and call Land, in a defer so a
// panic anywhere below it still releases its followers. Later misses
// get the leader's flight to Wait on. Flights live in the key's shard
// under their own lock, so coalescing on different shards never
// contends and never blocks the hit path.
func (e *Engine[V]) Join(k Key) (f *Flight, leader bool) {
	sh := e.shard(k)
	sh.flightMu.Lock()
	defer sh.flightMu.Unlock()
	if f, ok := sh.flights[k]; ok {
		return f, false
	}
	if sh.flights == nil {
		sh.flights = make(map[Key]*Flight)
	}
	f = &Flight{done: make(chan struct{})}
	sh.flights[k] = f
	return f, true
}

// Land retires the leader's flight and wakes its followers. A leader
// that panicked lands with a nil Err; its followers find no entry and
// fall back to their own invocations.
func (e *Engine[V]) Land(k Key, f *Flight) {
	sh := e.shard(k)
	sh.flightMu.Lock()
	delete(sh.flights, k)
	sh.flightMu.Unlock()
	close(f.done)
}

// Wait blocks until the leader lands or ctx (which may be nil) is done,
// returning ctx's error in the second case.
func (f *Flight) Wait(ctx context.Context) error {
	if ctx == nil {
		<-f.done
		return nil
	}
	select {
	case <-f.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
