// Package lockguard is the golden fixture for the lockguard analyzer:
// mutex-grouped fields accessed with and without their lock.
package lockguard

import "sync"

// Counter groups guarded state under mu; free is outside the group.
type Counter struct {
	name string

	mu    sync.Mutex
	count int
	// peak tracks the high-water mark of count.
	peak int

	free int
}

// Bump locks correctly.
func (c *Counter) Bump() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count++
	if c.count > c.peak {
		c.peak = c.count
	}
}

// Peek forgets the lock.
func (c *Counter) Peek() int {
	return c.count // want "accesses Counter.count, guarded by c.mu, without locking it"
}

// resetLocked is exempt by naming convention.
func (c *Counter) resetLocked() {
	c.count = 0
	c.peak = 0
}

// snapshot is exempt by documentation. Callers hold c.mu.
func (c *Counter) snapshot() (int, int) {
	return c.count, c.peak
}

// Free touches only unguarded fields.
func (c *Counter) Free() int {
	c.free++
	return c.free
}

// Name reads a field declared above the mutex, outside the group.
func (c *Counter) Name() string {
	return c.name
}

// shard mirrors the sharded cache-core layout: an element type whose
// mutex guards its own table and list, addressed through a pointer
// into a shard slice.
type shard struct {
	free int

	mu    sync.Mutex
	table map[string]int
	head  int
}

// sharded owns a slice of shards; the slice header itself is not
// guarded, each element's state is guarded by that element's mu.
type sharded struct {
	shards []shard
}

// get locks the addressed shard before touching its table.
func (s *sharded) get(i int, k string) int {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.table[k]
}

// sweep locks each shard in turn; accesses stay under the element's
// own lock.
func (s *sharded) sweep() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.table) + sh.head
		sh.mu.Unlock()
	}
	return n
}

// peek forgets the shard lock.
func (s *sharded) peek(i int, k string) int {
	sh := &s.shards[i]
	return sh.table[k] // want "accesses shard.table, guarded by sh.mu, without locking it"
}

// crossLock locks one shard but reads another: the lock must be taken
// on the same variable the fields are read through.
func (s *sharded) crossLock(a, b int, k string) int {
	sha := &s.shards[a]
	shb := &s.shards[b]
	sha.mu.Lock()
	defer sha.mu.Unlock()
	return shb.table[k] // want "accesses shard.table, guarded by shb.mu, without locking it"
}

// evictLocked is exempt by naming convention, as in the cache core.
func (sh *shard) evictLocked() {
	sh.head++
	delete(sh.table, "victim")
}

// Free touches only the unguarded field above the mutex group.
func (sh *shard) Free() int {
	sh.free++
	return sh.free
}

// gshard is a generic shard, as in the cache engine: accesses inside
// its methods and through instantiations resolve to the declared
// fields.
type gshard[V any] struct {
	mu    sync.Mutex
	table map[string]V
}

func (sh *gshard[V]) get(k string) V {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.table[k]
}

func (sh *gshard[V]) peek(k string) V {
	return sh.table[k] // want "accesses gshard.table, guarded by sh.mu, without locking it"
}

func peekInt(sh *gshard[int], k string) int {
	return sh.table[k] // want "accesses gshard.table, guarded by sh.mu, without locking it"
}
