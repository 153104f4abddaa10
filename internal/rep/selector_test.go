package rep

import (
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
)

// fakeClock is a manually advanced clock; fake stores advance it to
// simulate deterministic representation costs.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time { return c.t }

func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// costedStore simulates a representation with fixed Store/Load cost
// and payload size by advancing the fake clock.
type costedStore struct {
	name      string
	clk       *fakeClock
	storeCost time.Duration
	loadCost  time.Duration
	size      int
	stores    int
	loads     int
}

func (s *costedStore) Name() string { return s.name }

func (s *costedStore) Store(ictx *client.Context) (any, int, error) {
	s.stores++
	s.clk.advance(s.storeCost)
	return s.name, s.size, nil
}

func (s *costedStore) Load(payload any) (any, error) {
	s.loads++
	s.clk.advance(s.loadCost)
	//lint:ignore aliascopy cost-model probe: payloads are immutable strings, so aliasing cannot leak mutable cache state
	return payload, nil
}

// costedRegistry builds a registry whose value catalog is exactly the
// given scripted stores (replacing the builtins), each always
// applicable and registered under the next Section 6 name (ref, clone,
// ...). The static order therefore prefers them in the order given,
// mirroring a crafted workload where measured costs disagree with the
// static prior.
func costedRegistry(f *fixture, stores ...ValueStore) *Registry {
	r := NewRegistry(f.reg, f.codec)
	r.mu.Lock()
	r.values = make(map[string]*ValueSpec)
	r.valueOrder = nil
	r.mu.Unlock()
	for i, s := range stores {
		_ = r.RegisterValue(ValueSpec{Name: sectionSix[1+i], Store: s})
	}
	return r
}

// newTestSelector builds an adaptive selector with the sampling
// parameters turned down (probe 1-in-4, load sample 1-in-2, warm after
// two rounds) so a dozen fills converge.
func newTestSelector(t *testing.T, r *Registry, clk *fakeClock, mutate func(*SelectorConfig)) *Selector {
	t.Helper()
	cfg := SelectorConfig{Registry: r}
	if clk != nil {
		cfg.Clock = clk.Now
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sel, err := NewAdaptiveSelector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sel.probeEvery, sel.sampleLoadEvery, sel.minSamples = 4, 2, 2
	return sel
}

func TestSelectorRequiresRegistry(t *testing.T) {
	if _, err := NewAdaptiveSelector(SelectorConfig{}); err == nil {
		t.Fatal("selector built without a registry")
	}
}

func TestSelectorSwitchesToMeasuredBest(t *testing.T) {
	// Crafted skew: the representation registered first (the static
	// Table 3 preference on ties) is expensive to load; a later one is
	// cheap. The selector must converge on the cheap one — the switch
	// the static classifier can never make.
	f := newFixture(t)
	clk := &fakeClock{}
	slow := &costedStore{name: "slow", clk: clk, storeCost: 10 * time.Microsecond,
		loadCost: 500 * time.Microsecond, size: 256}
	fast := &costedStore{name: "fast", clk: clk, storeCost: 10 * time.Microsecond,
		loadCost: 5 * time.Microsecond, size: 256}
	r := costedRegistry(f, slow, fast)
	sel := newTestSelector(t, r, clk, nil)

	ictx := f.ictx(t, "get", &item{Name: "b"})
	for i := 0; i < 12; i++ {
		payload, _, err := sel.Store(ictx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sel.Load(payload); err != nil {
			t.Fatal(err)
		}
	}

	table := sel.DecisionTable()
	if len(table) != 1 {
		t.Fatalf("decision table = %+v, want one class", table)
	}
	d := table[0]
	if d.Chosen != "fast" || d.Source != "measured" {
		t.Fatalf("decision = %+v, want measured choice of fast", d)
	}
	if len(d.Costs) != 2 || d.Costs[0].Rep != "fast" {
		t.Errorf("costs not ranked with fast first: %+v", d.Costs)
	}
	// Post-convergence fills use the winner outside probe rounds too.
	before := fast.stores
	if _, _, err := sel.Store(ictx); err != nil {
		t.Fatal(err)
	}
	if fast.stores != before+1 {
		t.Error("non-probe fill did not use the measured choice")
	}
}

// classCostStore simulates a representation whose load cost depends on
// the result type, so per-class decisions can diverge deterministically.
type classCostStore struct {
	name      string
	clk       *fakeClock
	storeCost time.Duration
	loadCosts map[string]time.Duration // result type string -> load cost
	size      int
}

func (s *classCostStore) Name() string { return s.name }

func (s *classCostStore) Store(ictx *client.Context) (any, int, error) {
	s.clk.advance(s.storeCost)
	return reflect.TypeOf(ictx.Result).String(), s.size, nil
}

func (s *classCostStore) Load(payload any) (any, error) {
	s.clk.advance(s.loadCosts[payload.(string)])
	//lint:ignore aliascopy cost-model probe: payloads are immutable strings, so aliasing cannot leak mutable cache state
	return payload, nil
}

func TestSelectorPerTypeDecisions(t *testing.T) {
	// Two result types through one selector, two representations with
	// opposite per-type load costs: the decisions must diverge per
	// (operation, result type) class — the switch the paper's static
	// per-type classifier cannot express once types look alike at the
	// type level.
	f := newFixture(t)
	clk := &fakeClock{}
	itemT, cloneT := "*rep.item", "*rep.cloneableItem"
	alpha := &classCostStore{name: "alpha", clk: clk, storeCost: 10 * time.Microsecond,
		size: 128, loadCosts: map[string]time.Duration{
			itemT: 5 * time.Microsecond, cloneT: 500 * time.Microsecond,
		}}
	beta := &classCostStore{name: "beta", clk: clk, storeCost: 10 * time.Microsecond,
		size: 128, loadCosts: map[string]time.Duration{
			itemT: 500 * time.Microsecond, cloneT: 5 * time.Microsecond,
		}}
	sel := newTestSelector(t, costedRegistry(f, alpha, beta), clk, nil)

	small := f.ictx(t, "get", &item{Name: "small"})
	big := f.ictx(t, "get", &cloneableItem{Name: "big"})
	for i := 0; i < 12; i++ {
		for _, ictx := range []*client.Context{small, big} {
			payload, _, err := sel.Store(ictx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sel.Load(payload); err != nil {
				t.Fatal(err)
			}
		}
	}

	chosen := map[string]string{}
	for _, d := range sel.DecisionTable() {
		chosen[d.ResultType] = d.Chosen
	}
	if len(chosen) != 2 {
		t.Fatalf("decision table classes = %v, want two", chosen)
	}
	if chosen[itemT] != "alpha" {
		t.Errorf("%s chose %q, want alpha", itemT, chosen[itemT])
	}
	if chosen[cloneT] != "beta" {
		t.Errorf("%s chose %q, want beta", cloneT, chosen[cloneT])
	}
}

func TestSelectorByteBudgetPenalizesBulkyPayloads(t *testing.T) {
	// Without a capacity charge the bulky representation's faster load
	// would win; under the shard byte budget its payload pays a full
	// refill per hit and the compact one must be chosen.
	f := newFixture(t)
	clk := &fakeClock{}
	bulky := &costedStore{name: "bulky", clk: clk, storeCost: 20 * time.Microsecond,
		loadCost: 2 * time.Microsecond, size: 1 << 20}
	compact := &costedStore{name: "compact", clk: clk, storeCost: 20 * time.Microsecond,
		loadCost: 10 * time.Microsecond, size: 1 << 10}
	r := costedRegistry(f, bulky, compact)
	sel := newTestSelector(t, r, clk, func(cfg *SelectorConfig) {
		cfg.ByteBudget = 1 << 20 // a bulky payload fills the whole budget
	})

	ictx := f.ictx(t, "get", &item{Name: "b"})
	for i := 0; i < 12; i++ {
		payload, _, err := sel.Store(ictx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sel.Load(payload); err != nil {
			t.Fatal(err)
		}
	}
	table := sel.DecisionTable()
	if len(table) != 1 || table[0].Chosen != "compact" {
		t.Fatalf("decision = %+v, want compact under the byte budget", table)
	}
}

func TestSelectorMatchesStaticOnUniformWorkload(t *testing.T) {
	// Uniform immutable workload over the real representations: the
	// measured-cost choice must agree with the static Section 6
	// classifier (pass by reference), since nothing beats a shared
	// reference on load cost.
	f := newFixture(t)
	r := NewRegistry(f.reg, f.codec)
	sel := newTestSelector(t, r, nil, nil) // system clock: real costs

	ictx := f.ictx(t, "spell", "suggestion")
	staticChoice := NewAutoStore(f.reg, f.codec).Classify(ictx)
	for i := 0; i < 24; i++ {
		payload, _, err := sel.Store(ictx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sel.Load(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got != "suggestion" {
			t.Fatalf("load = %#v", got)
		}
	}

	table := sel.DecisionTable()
	if len(table) != 1 {
		t.Fatalf("decision table = %+v", table)
	}
	if table[0].Source != "measured" {
		t.Fatalf("selector did not warm up: %+v", table[0])
	}
	if table[0].Chosen != staticChoice {
		t.Errorf("adaptive chose %q, static classifier %q; uniform workload must agree",
			table[0].Chosen, staticChoice)
	}
}

func TestSelectorFallsBackToPriorWhenCold(t *testing.T) {
	// Before MinSamples probes, non-probe fills ride the static
	// classifier; payloads still round-trip.
	f := newFixture(t)
	r := NewRegistry(f.reg, f.codec)
	sel := newTestSelector(t, r, nil, nil)
	sel.minSamples, sel.probeEvery = 1000, 1000 // never warm
	ictx := f.ictx(t, "get", &item{Name: "bean", Tags: []string{"t"}})
	var payload any
	var err error
	for i := 0; i < 3; i++ {
		payload, _, err = sel.Store(ictx)
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := sel.Load(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.(*item).Name != "bean" {
		t.Errorf("load = %+v", got)
	}
	table := sel.DecisionTable()
	if len(table) != 1 || table[0].Source != "prior" {
		t.Errorf("cold class must report the prior: %+v", table)
	}
}

func TestSelectorExposesDecisionTableViaObs(t *testing.T) {
	f := newFixture(t)
	reg := obs.NewRegistry()
	r := NewRegistry(f.reg, f.codec)
	sel := newTestSelector(t, r, nil, func(cfg *SelectorConfig) { cfg.Obs = reg })

	ictx := f.ictx(t, "get", &item{Name: "b"})
	if _, _, err := sel.Store(ictx); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	v, ok := snap.Inspections["rep_selector"]
	if !ok {
		t.Fatal("snapshot has no rep_selector inspection")
	}
	table, ok := v.([]Decision)
	if !ok || len(table) != 1 {
		t.Fatalf("inspection = %#v", v)
	}
	// The probe round must have recorded StageRepProbe series.
	var sawProbe bool
	for _, st := range snap.Stages {
		if st.Stage == obs.StageRepProbe {
			sawProbe = true
		}
	}
	if !sawProbe {
		t.Error("no StageRepProbe series recorded")
	}
}

func TestSelectorBadPayload(t *testing.T) {
	f := newFixture(t)
	r := NewRegistry(f.reg, f.codec)
	sel := newTestSelector(t, r, nil, nil)
	if _, err := sel.Load(42); err == nil {
		t.Error("selector accepted a foreign payload")
	}
}

func TestSelectorNoApplicableCandidate(t *testing.T) {
	// Nothing captured, opaque result: probe produces nothing and the
	// static cascade's ErrNotApplicable is surfaced.
	f := newFixture(t)
	r := NewRegistry(f.reg, f.codec)
	sel := newTestSelector(t, r, nil, nil)
	ictx := f.reqCtx("get")
	ictx.Result = &opaqueResult{Name: "o"}
	if _, _, err := sel.Store(ictx); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("err = %v, want ErrNotApplicable", err)
	}
}

// replayStore is a scripted streaming representation: Load is free (as
// for raw and xmltmpl, a type assertion) and the cost is paid when the
// consumer replays the result.
type replayStore struct {
	name       string
	clk        *fakeClock
	replayCost time.Duration
}

func (s *replayStore) Name() string { return s.name }

func (s *replayStore) Store(*client.Context) (any, int, error) {
	s.clk.advance(10 * time.Microsecond)
	return &scriptedStream{s}, 256, nil
}

func (s *replayStore) Load(payload any) (any, error) {
	//lint:ignore aliascopy scripted fake: the payload is an immutable stream handle
	return payload, nil
}

type scriptedStream struct{ from *replayStore }

func (p *scriptedStream) Len() int      { return 256 }
func (p *scriptedStream) Bytes() []byte { return make([]byte, 256) }

func (p *scriptedStream) WriteTo(w io.Writer) (int64, error) {
	p.from.clk.advance(p.from.replayCost)
	n, err := w.Write(p.Bytes())
	return int64(n), err
}

// TestSelectorTimesStreamedReplay: two streaming candidates whose Load
// costs nothing and whose replay costs differ must be told apart — the
// load sample of a Streamed result is its WriteTo, not its Load. Timing
// Load alone scores them equal and the first registered wins.
func TestSelectorTimesStreamedReplay(t *testing.T) {
	f := newFixture(t)
	clk := &fakeClock{}
	splice := &replayStore{name: "splice", clk: clk, replayCost: 350 * time.Nanosecond}
	replay := &replayStore{name: "replay", clk: clk, replayCost: 7 * time.Nanosecond}
	sel := newTestSelector(t, costedRegistry(f, splice, replay), clk, nil)

	ictx := f.ictx(t, "get", &item{Name: "s"})
	for i := 0; i < 12; i++ {
		payload, _, err := sel.Store(ictx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sel.Load(payload); err != nil {
			t.Fatal(err)
		}
	}
	table := sel.DecisionTable()
	if len(table) != 1 || table[0].Source != "measured" || table[0].Chosen != "replay" {
		t.Fatalf("decision = %+v, want the measured choice of the cheap replay", table)
	}
	for _, c := range table[0].Costs {
		if c.LoadNS == 0 {
			t.Errorf("%s: load estimate is 0; the replay was not timed", c.Rep)
		}
	}
}

// TestSelectorColdFillAllocatesOneWrapper: a cold adaptive fill rides
// the static order through the same wrapper a static fill gets — what
// it allocates beyond the representation's own Store is its class
// lookup and exactly one selPayload.
func TestSelectorColdFillAllocatesOneWrapper(t *testing.T) {
	f := newFixture(t)
	r := NewRegistry(f.reg, f.codec)
	sel := newTestSelector(t, r, nil, nil)
	sel.minSamples, sel.probeEvery = 1<<40, 1<<40 // never probe again, never warm
	ictx := f.ictx(t, "spell", "immutable")
	if _, _, err := sel.Store(ictx); err != nil { // the class's first fill probes
		t.Fatal(err)
	}
	ref, err := r.Store("ref")
	if err != nil {
		t.Fatal(err)
	}
	bare := testing.AllocsPerRun(100, func() { _, _, _ = ref.Store(ictx) })
	class := testing.AllocsPerRun(100, func() { _ = sel.classFor(ictx) })
	cold := testing.AllocsPerRun(100, func() {
		payload, _, err := sel.Store(ictx)
		if err != nil || storedBy(t, payload) != "Pass by reference" {
			t.Fatalf("cold fill: %v, %v", payload, err)
		}
	})
	if cold != bare+class+1 {
		t.Errorf("cold adaptive fill = %v allocs; want %v (store) + %v (class lookup) + 1 wrapper", cold, bare, class)
	}
	auto := NewStaticSelector(r)
	if static := testing.AllocsPerRun(100, func() { _, _, _ = auto.Store(ictx) }); static != bare+1 {
		t.Errorf("static fill = %v allocs; want %v (store) + 1 wrapper", static, bare)
	}
}
