package obs

import (
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	const goroutines, perG = 16, 2000
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*perG {
		t.Errorf("Load = %d, want %d", got, goroutines*perG)
	}
}

func TestCounterNilSafe(t *testing.T) {
	var c *Counter
	c.Add(1) // must not panic
	if c.Load() != 0 {
		t.Error("nil counter Load != 0")
	}
}

// TestRegistryConcurrent hammers every recording path from concurrent
// goroutines (run under -race in CI) and checks the totals.
func TestRegistryConcurrent(t *testing.T) {
	const goroutines, perG = 8, 500
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Op("op").Hits.Add(1)
				r.Rep("rep").Misses.Add(1)
				r.Add("events", 1)
				r.Stage(StageLookup, "", time.Microsecond, nil)
				r.SetBreaker("ep", "closed")
				if i%16 == 0 {
					// Concurrent snapshots must not race with writers.
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()

	const total = goroutines * perG
	snap := r.Snapshot()
	if got := snap.Operations["op"].Hits; got != total {
		t.Errorf("op hits = %d, want %d", got, total)
	}
	if got := snap.Representations["rep"].Misses; got != total {
		t.Errorf("rep misses = %d, want %d", got, total)
	}
	if got := snap.Counters["events"]; got != total {
		t.Errorf("events = %d, want %d", got, total)
	}
	if len(snap.Stages) != 1 || snap.Stages[0].Latency.Count != total {
		t.Errorf("stages = %+v, want one series with count %d", snap.Stages, total)
	}
	if got := snap.Breakers["ep"]; got != "closed" {
		t.Errorf("breaker state = %q, want closed", got)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	// Every recording method must be a no-op, not a panic.
	r.Add("x", 1)
	r.Stage(StageLookup, "", time.Second, nil)
	r.SetBreaker("ep", "open")
	r.Counter("x").Add(1)
	if r.Op("op") != nil || r.Rep("rep") != nil {
		t.Error("nil registry Op/Rep should return nil")
	}
	snap := r.Snapshot()
	if len(snap.Operations) != 0 || len(snap.Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

func TestOr(t *testing.T) {
	if Or(nil) == nil {
		t.Fatal("Or(nil) must return a usable registry")
	}
	r := NewRegistry()
	if Or(r) != r {
		t.Error("Or must return its non-nil argument")
	}
}

func TestStageErrors(t *testing.T) {
	r := NewRegistry()
	r.Stage(StageInvoke, "", time.Millisecond, nil)
	r.Stage(StageInvoke, "", time.Millisecond, errFixture)
	snap := r.Snapshot()
	if len(snap.Stages) != 1 {
		t.Fatalf("stages = %d, want 1", len(snap.Stages))
	}
	if snap.Stages[0].Errors != 1 {
		t.Errorf("stage errors = %d, want 1", snap.Stages[0].Errors)
	}
	if snap.Stages[0].Latency.Count != 2 {
		t.Errorf("stage count = %d, want 2", snap.Stages[0].Latency.Count)
	}
}

// errFixture is a distinct error value for error-count tests.
var errFixture = &fixtureError{}

type fixtureError struct{}

func (*fixtureError) Error() string { return "fixture" }

func TestSnapshotStageOrder(t *testing.T) {
	r := NewRegistry()
	r.Stage(StageSend, "", time.Microsecond, nil)
	r.Stage(StageCopyOut, "b", time.Microsecond, nil)
	r.Stage(StageCopyOut, "a", time.Microsecond, nil)
	snap := r.Snapshot()
	if len(snap.Stages) != 3 {
		t.Fatalf("stages = %d, want 3", len(snap.Stages))
	}
	if snap.Stages[0].Stage != StageCopyOut || snap.Stages[0].Representation != "a" ||
		snap.Stages[1].Representation != "b" || snap.Stages[2].Stage != StageSend {
		t.Errorf("stage order = %+v, want (copyout,a) (copyout,b) (send)", snap.Stages)
	}
}

func TestHitRatio(t *testing.T) {
	r := NewRegistry()
	op := r.Op("op")
	op.Hits.Add(3)
	op.Misses.Add(1)
	snap := r.Snapshot()
	if got := snap.Operations["op"].HitRatio; got != 0.75 {
		t.Errorf("hit ratio = %v, want 0.75", got)
	}
	if got := r.Snapshot().Operations["op"].HitRatio; got != 0.75 {
		t.Errorf("second snapshot ratio = %v, want 0.75", got)
	}
}

func TestSetInspection(t *testing.T) {
	r := NewRegistry()
	n := 0
	r.SetInspection("widget", func() any { n++; return n })

	if got := r.Snapshot().Inspections["widget"]; got != 1 {
		t.Errorf("first snapshot inspection = %v, want 1", got)
	}
	if got := r.Snapshot().Inspections["widget"]; got != 2 {
		t.Errorf("inspection must be re-evaluated per snapshot, got %v", got)
	}

	// Re-registering replaces; nil callbacks and nil registries are
	// no-ops.
	r.SetInspection("widget", func() any { return "replaced" })
	r.SetInspection("ignored", nil)
	if got := r.Snapshot().Inspections["widget"]; got != "replaced" {
		t.Errorf("inspection = %v, want replaced", got)
	}
	if _, ok := r.Snapshot().Inspections["ignored"]; ok {
		t.Error("nil inspection registered")
	}
	var nilReg *Registry
	nilReg.SetInspection("x", func() any { return nil })
	if snap := nilReg.Snapshot(); snap.Inspections != nil {
		t.Errorf("nil registry snapshot inspections = %v", snap.Inspections)
	}
}

func TestSnapshotWithoutInspectionsOmitsMap(t *testing.T) {
	r := NewRegistry()
	if r.Snapshot().Inspections != nil {
		t.Error("empty registry must not allocate an inspections map")
	}
}
