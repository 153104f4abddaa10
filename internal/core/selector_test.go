package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/googleapi"
	"repro/internal/obs"
	"repro/internal/rep"
	"repro/internal/soap"
	"repro/internal/tier"
	"repro/internal/transport"
)

// These tests pin the selector a cache builds for itself when Config
// sets Rep and leaves Store nil: which representation every fill goes
// to, and that nothing else is asked.

// fakeStore is a scripted representation that counts its Store calls.
type fakeStore struct {
	name   string
	stores int
}

func (s *fakeStore) Name() string { return s.name }

func (s *fakeStore) Store(*client.Context) (any, int, error) {
	s.stores++
	return s.name, len(s.name), nil
}

func (s *fakeStore) Load(payload any) (any, error) {
	//lint:ignore aliascopy scripted fake: payloads are immutable strings, so aliasing cannot leak mutable cache state
	return payload, nil
}

// TestSelectorFillStoresOnce: every fill, the first and the 8th and
// 16th included, asks the chosen representation once and no other. The
// fakes keep the registry's applicability predicates, so a bean result
// walks the Section 6 order to reflection copy.
func TestSelectorFillStoresOnce(t *testing.T) {
	f := newFixture(t)
	reg := rep.NewRegistry(f.reg, f.codec)
	fakes := make(map[string]*fakeStore)
	for _, spec := range reg.Values() {
		fake := &fakeStore{name: spec.Name}
		scripted := *spec
		scripted.Store, scripted.Stage = fake, ""
		if err := reg.RegisterValue(scripted); err != nil {
			t.Fatal(err)
		}
		fakes[spec.Name] = fake
	}
	c := newCache(t, f, func(cfg *Config) { cfg.Store, cfg.Rep = nil, reg })
	next, _ := countingNext(f, t, func() any { return &item{Name: "bean", Tags: []string{"t"}} })

	const fills = 17
	for i := 1; i <= fills; i++ {
		ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: fmt.Sprint(i)})
		if err := c.HandleInvoke(ictx, next); err != nil {
			t.Fatal(err)
		}
		for name, fake := range fakes {
			want := 0
			if name == "reflect" {
				want = i
			}
			if fake.stores != want {
				t.Fatalf("after fill %d: %s stored %d times, want %d", i, name, fake.stores, want)
			}
		}
	}
}

// countingStore wraps a registered representation and counts its Store
// calls; countingWire does the same for a wire-capable one, so the
// selector's wire walk still sees a WireStore.
type countingStore struct {
	rep.ValueStore
	n *int
}

func (s countingStore) Store(ictx *client.Context) (any, int, error) {
	*s.n++
	return s.ValueStore.Store(ictx)
}

type countingWire struct {
	rep.WireStore
	n *int
}

func (s countingWire) Store(ictx *client.Context) (any, int, error) {
	*s.n++
	return s.WireStore.Store(ictx)
}

// countStores replaces every value representation of reg with a
// counting wrapper around itself and returns the counters by registry
// name.
func countStores(t *testing.T, reg *rep.Registry) map[string]*int {
	t.Helper()
	counts := make(map[string]*int)
	for _, spec := range reg.Values() {
		n := new(int)
		counted := *spec
		if ws, ok := spec.Store.(rep.WireStore); ok {
			counted.Store = countingWire{ws, n}
		} else {
			counted.Store = countingStore{spec.Store, n}
		}
		if err := reg.RegisterValue(counted); err != nil {
			t.Fatal(err)
		}
		counts[spec.Name] = n
	}
	return counts
}

// recordingTier is an in-process tier that remembers the
// representation of every entry written to it.
type recordingTier struct {
	*engine.Tier
	reps []string
}

func (r *recordingTier) Put(ctx context.Context, key tier.Key, e tier.Entry) error {
	r.reps = append(r.reps, e.Rep)
	return r.Tier.Put(ctx, key, e)
}

// TestDefaultSelectorGolden pins, for every result class the referee
// benchmark serves, the representation each fill puts in L1 and the one
// it ships to a tier, under the system clock and a frozen one. The
// golden columns are written out on purpose: they are the Section 6
// order and the wire preference applied to googleapi's results.
func TestDefaultSelectorGolden(t *testing.T) {
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	search := func(i int) []soap.Param {
		return googleapi.SearchParams("k", fmt.Sprint("golden ", i), 0, 10, false, "", false, "")
	}
	getItem := func(i int) []soap.Param { return googleapi.GetItemParams(fmt.Sprint("item-", i)) }
	frozen := time.Unix(1_000_000_000, 0)
	clocks := []struct {
		name string
		now  func() time.Time
	}{
		{"system clock", nil},
		{"frozen clock", func() time.Time { return frozen }},
	}
	classes := []struct {
		name     string
		op       string
		params   func(int) []soap.Param
		stream   bool
		l1, wire string
	}{
		{"doGoogleSearch object", googleapi.OpGoogleSearch, search, false, "clone", "binser"},
		{"doGoogleSearch stream", googleapi.OpGoogleSearch, search, true, "raw", "raw"},
		{"doGetItem string", googleapi.OpGetItem, getItem, false, "ref", "binser"},
	}
	for _, clk := range clocks {
		for _, class := range classes {
			t.Run(clk.name+"/"+class.name, func(t *testing.T) {
				reg := rep.NewRegistry(codec.Registry(), codec)
				counts := countStores(t, reg)
				l2 := &recordingTier{Tier: engine.NewTier(engine.Config{}, nil, obs.NewRegistry())}
				cache := MustNew(Config{
					KeyGen:     rep.NewStringKey(),
					Rep:        reg,
					DefaultTTL: time.Hour,
					Clock:      clk.now,
					Tiers:      []tier.Tier{l2},
				})
				call := client.NewCall(codec, &transport.InProcess{Handler: disp},
					googleapi.Endpoint, googleapi.Namespace, class.op, "",
					client.Options{AcceptStream: class.stream, Handlers: []client.Handler{cache}})
				const fills = 17
				for i := 1; i <= fills; i++ {
					if _, err := call.Invoke(context.Background(), class.params(i)...); err != nil {
						t.Fatal(err)
					}
					// One Store for the L1 fill and one for the tier
					// write, each on its golden representation.
					want := map[string]int{class.l1: i}
					want[class.wire] += i
					for name, n := range counts {
						if *n != want[name] {
							t.Fatalf("after fill %d: %s stored %d times, want %d", i, name, *n, want[name])
						}
					}
					if got := l2.reps[len(l2.reps)-1]; got != class.wire {
						t.Fatalf("fill %d: tier entry in %q, want %q", i, got, class.wire)
					}
				}
			})
		}
	}
}

// TestDefaultSelectorFillAllocs: a doGoogleSearch fill through the
// default selector allocates what the clone store's own Store does,
// plus the one wrapper that routes Load back to it.
func TestDefaultSelectorFillAllocs(t *testing.T) {
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	call := client.NewCall(codec, &transport.InProcess{Handler: disp},
		googleapi.Endpoint, googleapi.Namespace, googleapi.OpGoogleSearch, "",
		client.Options{})
	ictx, err := call.InvokeContext(context.Background(),
		googleapi.SearchParams("k", "alloc query", 0, 10, false, "", false, "")...)
	if err != nil {
		t.Fatal(err)
	}
	reg := rep.NewRegistry(codec.Registry(), codec)
	c := MustNew(Config{KeyGen: rep.NewStringKey(), Rep: reg})
	clone, err := reg.Store("clone")
	if err != nil {
		t.Fatal(err)
	}
	bare := testing.AllocsPerRun(100, func() { _, _, _ = clone.Store(ictx) })
	fill := testing.AllocsPerRun(100, func() {
		if _, _, err := c.store.Store(ictx); err != nil {
			t.Fatal(err)
		}
	})
	if fill > bare+1 {
		t.Errorf("default selector fill = %v allocs, want <= %v (clone store) + 1 wrapper", fill, bare)
	}
}
