package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/soap"
)

func TestSweepExpired(t *testing.T) {
	f := newFixture(t)
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	c := newCache(t, f, func(cfg *Config) {
		cfg.DefaultTTL = time.Minute
		cfg.Clock = clock
	})
	next, _ := countingNext(f, t, func() any { return &item{Name: "x"} })

	for _, q := range []string{"a", "b", "c"} {
		ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: q})
		if err := c.HandleInvoke(ictx, next); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Entries != 3 {
		t.Fatalf("len = %d", c.Stats().Entries)
	}

	// Nothing expired yet.
	if n := c.SweepExpired(); n != 0 {
		t.Errorf("sweep removed %d fresh entries", n)
	}

	advance(30 * time.Second)
	ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "d"})
	if err := c.HandleInvoke(ictx, next); err != nil {
		t.Fatal(err)
	}

	// a, b, c are now expired; d is fresh.
	advance(40 * time.Second)
	if n := c.SweepExpired(); n != 3 {
		t.Errorf("sweep removed %d, want 3", n)
	}
	if c.Stats().Entries != 1 {
		t.Errorf("len = %d, want 1", c.Stats().Entries)
	}
	if c.Stats().Bytes <= 0 {
		t.Error("remaining entry has no accounted bytes")
	}
	// Bytes accounting went down to exactly the remaining entry.
	before := c.Stats().Bytes
	c.Clear()
	if c.Stats().Bytes != 0 {
		t.Errorf("bytes after clear = %d (was %d)", c.Stats().Bytes, before)
	}
}

func TestSweeperLifecycle(t *testing.T) {
	f := newFixture(t)
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	c := newCache(t, f, func(cfg *Config) {
		cfg.DefaultTTL = time.Millisecond
		cfg.Clock = func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		}
	})
	next, _ := countingNext(f, t, func() any { return &item{} })
	ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
	if err := c.HandleInvoke(ictx, next); err != nil {
		t.Fatal(err)
	}

	s := NewSweeperContext(context.Background(), c, 5*time.Millisecond)
	mu.Lock()
	now = now.Add(time.Hour) // everything expired
	mu.Unlock()

	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().Entries > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.Stats().Entries != 0 {
		t.Error("sweeper did not reclaim expired entry")
	}
	s.Shutdown() // must not hang or panic
}

func TestSweeperDefaultInterval(t *testing.T) {
	f := newFixture(t)
	c := newCache(t, f, nil)
	s := NewSweeperContext(context.Background(), c, 0)
	s.Shutdown()
}
