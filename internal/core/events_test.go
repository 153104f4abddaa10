package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/googleapi"
	"repro/internal/obs"
	"repro/internal/rep"
	"repro/internal/sax"
	"repro/internal/soap"
	"repro/internal/tier"
	"repro/internal/transport"
)

// These tests pin who records the response's SAX events on a miss: the
// pivot, teed into its one parse, exactly when the store the cache
// fills reads events (rep.EventReader); otherwise nobody, unless a
// Selector's walk reaches an event store, which then records from the
// response XML once per fill (client.Context.Events).

// eventStores are the representations that read events.
var eventStores = []string{"sax", "compact-sax", "dom", "xmltmpl"}

// pivotProbe sits between the cache and the pivot: it counts the
// invocations that asked for a recording, and after the pivot returns
// it hands the context to after, when set.
type pivotProbe struct {
	recorded int
	after    func(*client.Context)
}

func (p *pivotProbe) HandleInvoke(ictx *client.Context, next client.Invoker) error {
	if ictx.RecordEvents {
		p.recorded++
	}
	err := next(ictx)
	if err == nil && p.after != nil {
		p.after(ictx)
	}
	return err
}

// searchCall builds a doGoogleSearch call through cache and probe to
// the in-process Google dispatcher.
func searchCall(t *testing.T, cache *Cache, probe *pivotProbe, stream bool) *client.Call {
	t.Helper()
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	return client.NewCall(codec, &transport.InProcess{Handler: disp},
		googleapi.Endpoint, googleapi.Namespace, googleapi.OpGoogleSearch, "",
		client.Options{AcceptStream: stream, Handlers: []client.Handler{cache, probe}})
}

func searchParams(q string) []soap.Param {
	return googleapi.SearchParams("k", q, 0, 10, false, "", false, "")
}

// TestSelectorMissRecordsNoEvents: a miss on a typed result under the
// default Selector, with a remote tier so the wire walk runs too, never
// asks the pivot to record, and no store records afterwards:
// ResponseEvents, where both a pivot recording and a store's recording
// land, stays nil.
func TestSelectorMissRecordsNoEvents(t *testing.T) {
	_, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	l2 := &recordingTier{Tier: engine.NewTier(engine.Config{}, nil, obs.NewRegistry())}
	cache := MustNew(Config{
		KeyGen:     rep.NewStringKey(),
		Rep:        rep.NewRegistry(codec.Registry(), codec),
		DefaultTTL: time.Hour,
		Tiers:      []tier.Tier{l2},
	})
	probe := &pivotProbe{}
	call := searchCall(t, cache, probe, false)
	for _, q := range []string{"typed 1", "typed 2", "typed 3"} {
		ictx, err := call.InvokeContext(context.Background(), searchParams(q)...)
		if err != nil {
			t.Fatal(err)
		}
		if ictx.CacheHit {
			t.Fatalf("%s: a fresh query hit", q)
		}
		if ictx.ResponseEvents != nil {
			t.Errorf("%s: the miss recorded %d events; clone and binser read none", q, len(ictx.ResponseEvents))
		}
	}
	if probe.recorded != 0 {
		t.Errorf("%d of 3 misses asked the pivot to record events", probe.recorded)
	}
	if got := l2.reps; len(got) != 3 || got[0] != "binser" {
		t.Errorf("tier entries %v, want 3 in binser", got)
	}
	if s := cache.Stats(); s.Stores != 3 || s.Errors != 0 {
		t.Errorf("stats %+v, want 3 stores and no errors", s)
	}
}

// TestEventStoreUsesTeedParse: a cache pinned to an event store has the
// pivot record during its one parse, and the store builds its payload
// from that recording, never from the response XML: the probe replaces
// the XML with bytes that do not parse once the pivot is done, so a
// store that recorded again would fail the fill.
func TestEventStoreUsesTeedParse(t *testing.T) {
	for _, name := range eventStores {
		t.Run(name, func(t *testing.T) {
			_, codec, err := googleapi.NewDispatcher()
			if err != nil {
				t.Fatal(err)
			}
			store, err := rep.NewRegistry(codec.Registry(), codec).Store(name)
			if err != nil {
				t.Fatal(err)
			}
			cache := MustNew(Config{KeyGen: rep.NewStringKey(), Store: store, DefaultTTL: time.Hour})
			probe := &pivotProbe{after: func(ictx *client.Context) {
				if len(ictx.ResponseEvents) == 0 {
					t.Error("the pivot returned no recorded events")
				}
				ictx.ResponseXML = []byte("<unparsable")
			}}
			call := searchCall(t, cache, probe, name == "xmltmpl")
			if _, err := call.Invoke(context.Background(), searchParams("teed")...); err != nil {
				t.Fatal(err)
			}
			if probe.recorded != 1 {
				t.Errorf("the miss asked for %d recordings, want 1", probe.recorded)
			}
			if s := cache.Stats(); s.Stores != 1 || s.Errors != 0 {
				t.Errorf("stats %+v: the fill did not store from the teed events", s)
			}
		})
	}
}

// witnessLog notes, around each Store of the store it wraps, the
// recording the context held before and after it.
type witnessLog struct {
	before, after []*sax.Event
}

func (l *witnessLog) store(ictx *client.Context, s rep.ValueStore) (any, int, error) {
	l.before = append(l.before, firstEvent(ictx))
	payload, size, err := s.Store(ictx)
	l.after = append(l.after, firstEvent(ictx))
	return payload, size, err
}

// witnessStore and witnessWire put a witnessLog around a representation;
// the wire form keeps a wire-capable one visible to the wire walk.
type witnessStore struct {
	rep.ValueStore
	log *witnessLog
}

func (w witnessStore) Store(ictx *client.Context) (any, int, error) {
	return w.log.store(ictx, w.ValueStore)
}

type witnessWire struct {
	rep.WireStore
	log *witnessLog
}

func (w witnessWire) Store(ictx *client.Context) (any, int, error) {
	return w.log.store(ictx, w.WireStore)
}

// firstEvent identifies a recording by the address of its first event;
// nil when nothing is recorded.
func firstEvent(ictx *client.Context) *sax.Event {
	if len(ictx.ResponseEvents) == 0 {
		return nil
	}
	return &ictx.ResponseEvents[0]
}

// TestSelectorUntypedRecordsOnce: an untyped result (neither immutable,
// cloneable, bean nor gob-safe) walks the Section 6 order to the SAX
// store and the wire preference to the compact SAX store. Neither is
// recorded by the pivot; the first of them records from the response
// XML and the second reads that same recording.
func TestSelectorUntypedRecordsOnce(t *testing.T) {
	f := newFixture(t)
	reg := rep.NewRegistry(f.reg, f.codec)
	witness := make(map[string]*witnessLog)
	for _, name := range []string{"sax", "compact-sax"} {
		spec, err := reg.ValueSpecFor(name)
		if err != nil {
			t.Fatal(err)
		}
		log := new(witnessLog)
		witnessed := *spec
		if ws, ok := spec.Store.(rep.WireStore); ok {
			witnessed.Store = witnessWire{ws, log}
		} else {
			witnessed.Store = witnessStore{spec.Store, log}
		}
		if err := reg.RegisterValue(witnessed); err != nil {
			t.Fatal(err)
		}
		witness[name] = log
	}
	l2 := &recordingTier{Tier: engine.NewTier(engine.Config{}, nil, obs.NewRegistry())}
	c := newCache(t, f, func(cfg *Config) {
		cfg.Store, cfg.Rep, cfg.Tiers = nil, reg, []tier.Tier{l2}
	})
	respXML, err := f.codec.EncodeResponse(testNS, opGet, &item{Name: "o"})
	if err != nil {
		t.Fatal(err)
	}
	recordAsked := false
	next := func(ictx *client.Context) error {
		recordAsked = ictx.RecordEvents
		ictx.Result = &opaqueResult{Name: "o"}
		ictx.ResponseXML = respXML
		return nil
	}
	ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "untyped"})
	if err := c.HandleInvoke(ictx, next); err != nil {
		t.Fatal(err)
	}
	if recordAsked {
		t.Error("the Selector asked the pivot to record")
	}
	l1, wire := witness["sax"], witness["compact-sax"]
	if len(l1.before) != 1 || len(wire.before) != 1 {
		t.Fatalf("sax stored %d times, compact-sax %d; want 1 each", len(l1.before), len(wire.before))
	}
	if l1.before[0] != nil || l1.after[0] == nil {
		t.Fatal("the L1 store did not record the unrecorded response")
	}
	if wire.before[0] == nil || wire.before[0] != l1.after[0] || wire.after[0] != l1.after[0] {
		t.Error("the wire store recorded again instead of reading the L1 store's recording")
	}
	if len(l2.reps) != 1 || l2.reps[0] != "compact-sax" {
		t.Errorf("tier entries %v, want one compact-sax", l2.reps)
	}
}

// TestEventStoreHitsUnchanged: a hit on each event store returns what
// the miss returned — the decoded object, or for xmltmpl the response
// bytes themselves — so recording in the pivot only when the store
// reads events changes no hit.
func TestEventStoreHitsUnchanged(t *testing.T) {
	for _, name := range eventStores {
		t.Run(name, func(t *testing.T) {
			_, codec, err := googleapi.NewDispatcher()
			if err != nil {
				t.Fatal(err)
			}
			store, err := rep.NewRegistry(codec.Registry(), codec).Store(name)
			if err != nil {
				t.Fatal(err)
			}
			cache := MustNew(Config{KeyGen: rep.NewStringKey(), Store: store, DefaultTTL: time.Hour})
			stream := name == "xmltmpl"
			call := searchCall(t, cache, &pivotProbe{}, stream)
			params := searchParams("hit")
			miss, err := call.InvokeContext(context.Background(), params...)
			if err != nil {
				t.Fatal(err)
			}
			hit, err := call.InvokeContext(context.Background(), params...)
			if err != nil {
				t.Fatal(err)
			}
			if miss.CacheHit || !hit.CacheHit {
				t.Fatalf("miss.CacheHit=%v hit.CacheHit=%v", miss.CacheHit, hit.CacheHit)
			}
			if stream {
				st, ok := hit.Result.(rep.Streamed)
				if !ok {
					t.Fatalf("xmltmpl hit is %T, want a stream", hit.Result)
				}
				if !bytes.Equal(st.Bytes(), miss.ResponseXML) {
					t.Errorf("xmltmpl hit replays\n%s\nwant the response\n%s", st.Bytes(), miss.ResponseXML)
				}
				return
			}
			if !reflect.DeepEqual(hit.Result, miss.Result) {
				t.Errorf("hit %+v, want the miss's %+v", hit.Result, miss.Result)
			}
		})
	}
}

// TestRecordingFollowsPolicyStores: the recording decision follows the
// store each operation's fill goes to — its policy's own store, else
// the cache's — and, for an unlisted operation, an explicit default
// policy's store.
func TestRecordingFollowsPolicyStores(t *testing.T) {
	f := newFixture(t)
	reg := rep.NewRegistry(f.reg, f.codec)
	store := func(name string) rep.ValueStore {
		s, err := reg.Store(name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ops := map[string]OperationPolicy{
		"pinnedSAX":   {Cacheable: true, Store: store("sax")},
		"pinnedClone": {Cacheable: true, Store: store("clone")},
		"listed":      {Cacheable: true},
	}
	for _, tc := range []struct {
		name  string
		cache rep.ValueStore
		dflt  *OperationPolicy
		want  map[string]bool
	}{
		{"selector", store("auto"), nil,
			map[string]bool{"pinnedSAX": true, "pinnedClone": false, "listed": false, "unlisted": false}},
		{"dom", store("dom"), nil,
			map[string]bool{"pinnedSAX": true, "pinnedClone": false, "listed": true, "unlisted": true}},
		{"selector, default xmltmpl", store("auto"), &OperationPolicy{Cacheable: true, Store: store("xmltmpl")},
			map[string]bool{"pinnedSAX": true, "pinnedClone": false, "listed": false, "unlisted": true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := Policy{Operations: ops}
			if tc.dflt != nil {
				p.Default, p.DefaultExplicit = *tc.dflt, true
			}
			c := newCache(t, f, func(cfg *Config) { cfg.Store, cfg.Policy = tc.cache, p })
			for op, want := range tc.want {
				if got := c.readsEvents(op); got != want {
					t.Errorf("%s records events: %v, want %v", op, got, want)
				}
			}
		})
	}
}
