// Package hotpath is the golden fixture for the hotpath analyzer.
package hotpath

import (
	"fmt"
	"strconv"
	"sync"
)

func sink(v any)   {}
func release()     {}
func use(s string) {}

// cold is unannotated: anything goes.
func cold(op string) string {
	defer release()
	return fmt.Sprintf("op=%s", op)
}

// hot carries the annotation and trips every rule.
//
//lint:hotpath
func hot(op string, n int) string {
	banner := fmt.Sprintf("ready") // want "fmt.Sprintf in hot-path function hot"
	use(banner)

	msg := "op=" + op // want "non-constant string concatenation"
	msg += "!"        // want "string \+= in hot-path"

	for i := 0; i < n; i++ {
		defer release() // want "defer inside a loop"
	}

	f := func() int { return n } // want "closure in hot-path function hot captures n"
	_ = f

	sink(n)     // want "boxes a non-pointer value into an interface parameter"
	v := any(n) // want "conversion to interface in hot-path function hot"
	_ = v

	return msg
}

type guarded struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	l   sync.Locker
	val int
}

// locked trips the mutex rule on every acquisition flavor.
//
//lint:hotpath
func locked(g *guarded) int {
	g.mu.Lock() // want "sync.Mutex.Lock in hot-path function locked"
	g.mu.Unlock()
	g.rw.RLock() // want "sync.RWMutex.RLock in hot-path function locked"
	g.rw.RUnlock()
	if g.rw.TryLock() { // want "sync.RWMutex.TryLock in hot-path function locked"
		g.rw.Unlock()
	}
	g.l.Lock() // want "sync.Locker.Lock in hot-path function locked"
	g.l.Unlock()
	return g.val
}

// pooled shows the sanctioned replacement: sync.Pool's per-P fast path
// is lock-free and stays exempt.
//
//lint:hotpath
func pooled(p *sync.Pool, data []byte) {
	buf := p.Get().(*[]byte)
	*buf = append((*buf)[:0], data...)
	p.Put(buf)
}

// allowed shows the clean spellings of the same operations.
//
//lint:hotpath
func allowed(op string, n int, buf []byte) []byte {
	const prefix = "op=" + "v1:" // constant concatenation is free
	use(prefix)

	buf = append(buf, prefix...)
	buf = append(buf, op...)
	buf = strconv.AppendInt(buf, int64(n), 10)

	sink(nil) // nil boxes nothing
	sink(&n)  // pointers store directly in the interface word
	var a any = &n
	sink(a) // already an interface

	defer release() // defer outside a loop is one frame, not n

	//lint:ignore hotpath error path: runs at most once per failed lookup, never on a hit
	err := fmt.Errorf("op %s failed", op)
	_ = err

	return buf
}
