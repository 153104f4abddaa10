package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/soap"
)

// TestCacheRecordsIntoRegistry drives a miss and a hit through an
// instrumented cache and checks what lands in the shared registry:
// per-operation and per-representation counters and stage histograms.
func TestCacheRecordsIntoRegistry(t *testing.T) {
	f := newFixture(t)
	reg := obs.NewRegistry()
	c := newCache(t, f, func(cfg *Config) { cfg.Obs = reg })
	next, _ := countingNext(f, t, func() any { return &item{Name: "a"} })

	for i := 0; i < 2; i++ { // miss, then hit
		ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
		if err := c.HandleInvoke(ictx, next); err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	op := snap.Operations[opGet]
	if op.Hits != 1 || op.Misses != 1 || op.Stores != 1 {
		t.Errorf("op counters = %+v, want 1 hit, 1 miss, 1 store", op)
	}
	rep := snap.Representations["Copy by reflection"]
	if rep.Hits != 1 || rep.Misses != 1 {
		t.Errorf("rep counters = %+v, want 1 hit (copy-out), 1 miss (fill)", rep)
	}
	for _, stage := range []obs.Stage{obs.StageKeyGen, obs.StageLookup, obs.StageInvoke, obs.StageCopyIn, obs.StageCopyOut} {
		found := false
		for _, s := range snap.Stages {
			if s.Stage == stage && s.Latency.Count > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("stage %s not recorded", stage)
		}
	}
}

// TestStatsMatchRegistry checks that Cache.Stats and the registry's
// core.* counters are the same numbers — Stats is a registry view.
func TestStatsMatchRegistry(t *testing.T) {
	f := newFixture(t)
	reg := obs.NewRegistry()
	c := newCache(t, f, func(cfg *Config) { cfg.Obs = reg })
	next, _ := countingNext(f, t, func() any { return &item{Name: "a"} })
	for i := 0; i < 3; i++ {
		ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
		if err := c.HandleInvoke(ictx, next); err != nil {
			t.Fatal(err)
		}
	}

	s := c.Stats()
	counters := reg.Snapshot().Counters
	if s.Hits != counters["core.hits"] || s.Misses != counters["core.misses"] || s.Stores != counters["core.stores"] {
		t.Errorf("Stats %+v != registry counters %+v", s, counters)
	}
	if s.Hits != 2 || s.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", s.Hits, s.Misses)
	}
	if c.reg != reg {
		t.Error("Obs() should return the configured registry")
	}
}

// TestUninstrumentedCacheSkipsStages checks the untimed default: Stats
// counters still work (private registry) but no stage latency series
// appear.
func TestUninstrumentedCacheSkipsStages(t *testing.T) {
	f := newFixture(t)
	c := newCache(t, f, nil)
	next, _ := countingNext(f, t, func() any { return &item{Name: "a"} })
	for i := 0; i < 2; i++ {
		ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
		if err := c.HandleInvoke(ictx, next); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss", s)
	}
	if stages := c.reg.Snapshot().Stages; len(stages) != 0 {
		t.Errorf("untimed cache recorded %d stage series, want 0", len(stages))
	}
}
