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

// These tests pin who records the response's SAX events on a miss: never
// the pivot, which always decodes through its envelope memo; only a
// store that reads events, which records the response XML once per fill
// through client.Context.Events and leaves the recording on the context
// for every later store of that fill.

// eventStores are the representations that read events.
var eventStores = []string{"sax", "compact-sax", "dom", "xmltmpl"}

// pivotProbe sits between the cache and the pivot: after the pivot
// returns it hands the context to after, when set.
type pivotProbe struct {
	after func(*client.Context)
}

func (p *pivotProbe) HandleInvoke(ictx *client.Context, next client.Invoker) error {
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
// default Selector, with a remote tier so the wire walk runs too,
// records no events: ResponseEvents, where a store's recording lands,
// stays nil.
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
	call := searchCall(t, cache, &pivotProbe{}, false)
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
	if got := l2.reps; len(got) != 3 || got[0] != "binser" {
		t.Errorf("tier entries %v, want 3 in binser", got)
	}
	if s := cache.Stats(); s.Stores != 3 || s.Errors != 0 {
		t.Errorf("stats %+v, want 3 stores and no errors", s)
	}
}

// TestPivotNeverRecords: a cache pinned to an event store still has the
// pivot decode without recording, ResponseEvents is nil when the pivot
// returns, and the fill stores from the response XML.
func TestPivotNeverRecords(t *testing.T) {
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
			returned := false
			probe := &pivotProbe{after: func(ictx *client.Context) {
				returned = true
				if ictx.ResponseEvents != nil {
					t.Errorf("the pivot returned %d recorded events", len(ictx.ResponseEvents))
				}
			}}
			call := searchCall(t, cache, probe, name == "xmltmpl")
			if _, err := call.Invoke(context.Background(), searchParams("unrecorded")...); err != nil {
				t.Fatal(err)
			}
			if !returned {
				t.Fatal("the miss never reached the pivot")
			}
			if s := cache.Stats(); s.Stores != 1 || s.Errors != 0 {
				t.Errorf("stats %+v, want 1 store and no errors", s)
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
// cloneable nor bean) walks the Section 6 order to the SAX
// store and the wire preference to the compact SAX store. The first of
// them records from the response XML and the second reads that same
// recording.
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
	next := func(ictx *client.Context) error {
		ictx.Result = &opaqueResult{Name: "o"}
		ictx.ResponseXML = respXML
		return nil
	}
	ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "untyped"})
	if err := c.HandleInvoke(ictx, next); err != nil {
		t.Fatal(err)
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
// bytes themselves — so filling from a recording the store makes itself
// changes no hit.
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
