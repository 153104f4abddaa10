package core

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/googleapi"
	"repro/internal/obs"
	"repro/internal/rep"
	"repro/internal/soap"
	"repro/internal/tier"
)

// The tests in this file hold a tier hit to what an origin response
// gets: the consumer's own kind of result, an L1 entry in the
// representation an origin fill picks, and call-by-copy on both sides
// of the promotion.

// promoteFixture is the core fixture with the googleapi result types
// registered beside the test types.
func promoteFixture(t *testing.T) *fixture {
	t.Helper()
	f := newFixture(t)
	if err := googleapi.RegisterTypes(f.reg); err != nil {
		t.Fatal(err)
	}
	return f
}

// process is one client process sharing a tier: its own cache, its
// consumer kind, and the origin calls it made.
type process struct {
	f      *fixture
	c      *Cache
	stream bool
	next   client.Invoker
	origin func() int64
}

// newProcess builds a process over shared whose origin answers result
// and whose L1 representation is store (nil: the Section 6 selector).
// mutate, if any, adjusts the configuration last.
func newProcess(t *testing.T, f *fixture, shared tier.Tier, stream bool, store rep.ValueStore, result func() any, mutate ...func(*Config)) *process {
	t.Helper()
	c := newCache(t, f, func(cfg *Config) {
		cfg.Store = store
		cfg.Rep = rep.NewRegistry(f.reg, f.codec)
		cfg.Tiers = []tier.Tier{shared}
		for _, m := range mutate {
			m(cfg)
		}
	})
	next, calls := countingNext(f, t, result)
	return &process{f: f, c: c, stream: stream, next: next, origin: calls.Load}
}

// call invokes opGet for q and returns the context.
func (p *process) call(t *testing.T, q string) *client.Context {
	t.Helper()
	ictx := p.f.reqCtx(opGet, soap.Param{Name: "q", Value: q})
	ictx.AcceptStream = p.stream
	if err := p.c.HandleInvoke(ictx, p.next); err != nil {
		t.Fatal(err)
	}
	return ictx
}

func sharedTier() tier.Tier { return engine.NewTier(engine.Config{}, nil, obs.NewRegistry()) }

func searchResult() any { return googleapi.Search("promote", 0, 3) }

// TestTierPromotionCrossConsumer: an entry one kind of consumer wrote
// serves the other kind its own kind of result. A stream-accepting
// process writes the raw envelope; an object process reads it as the
// decoded search result, not as replayable bytes. An object process
// writes binser; a stream process reads it as the object (binser
// carries no envelope to replay). Either way the reader's next call is
// an L1 hit of the same kind. A stream process reading the raw
// envelope holds it as raw bytes in its L1 too.
func TestTierPromotionCrossConsumer(t *testing.T) {
	f := promoteFixture(t)
	want := searchResult()
	for _, c := range []struct {
		name           string
		writer, reader bool // AcceptStream
		wantL1         string
	}{
		{"stream writes, object reads", true, false, "Copy by clone"},
		{"object writes, stream reads", false, true, "Copy by clone"},
		{"stream writes, stream reads", true, true, "Raw response replay"},
	} {
		t.Run(c.name, func(t *testing.T) {
			shared := sharedTier()
			writer := newProcess(t, f, shared, c.writer, nil, searchResult)
			reader := newProcess(t, f, shared, c.reader, nil, searchResult)
			writer.call(t, "x")
			if got := shared.TierStats().Entries; got != 1 {
				t.Fatalf("tier holds %d entries, want 1", got)
			}
			for i := 0; i < 2; i++ { // a promotion, then an L1 hit
				ictx := reader.call(t, "x")
				if !ictx.CacheHit || reader.origin() != 0 || reader.c.Stats().TierHits != 1 {
					t.Fatalf("read %d: hit %v, origin calls %d, tier hits %d", i, ictx.CacheHit, reader.origin(), reader.c.Stats().TierHits)
				}
				if c.wantL1 == "Raw response replay" {
					st, ok := ictx.Result.(rep.Streamed)
					if !ok || !reflect.DeepEqual(st.Bytes(), f.ictx(t, opGet, want).ResponseXML) {
						t.Fatalf("read %d: result %T, want the writer's envelope as a stream", i, ictx.Result)
					}
					continue
				}
				got, ok := ictx.Result.(*googleapi.GoogleSearchResult)
				if !ok || !reflect.DeepEqual(got, want) {
					t.Fatalf("read %d: result %T, want the decoded *googleapi.GoogleSearchResult", i, ictx.Result)
				}
			}
			if got := heldBy(t, reader.c, reader.f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})); got != c.wantL1 {
				t.Errorf("promoted entry held by %q, want %q", got, c.wantL1)
			}
		})
	}
}

// heldBy names the representation holding ictx's L1 entry.
func heldBy(t *testing.T, c *Cache, ictx *client.Context) string {
	t.Helper()
	key, err := c.keygen.Key(ictx)
	if err != nil {
		t.Fatal(err)
	}
	hit, st := c.eng.Lookup(c.eng.Digest([]byte(key)), engine.Serve)
	if st != engine.Found {
		t.Fatalf("no L1 entry (%v)", st)
	}
	return hit.Value.store.Name()
}

// TestPromotedHitAllocsMatchOriginFill: once promoted, a search result
// is an L1 entry like any other — its hits allocate exactly what the
// hits of an entry the origin filled do, whichever consumer kind wrote
// the tier entry (binser from an object consumer, the raw envelope
// from a stream consumer).
func TestPromotedHitAllocsMatchOriginFill(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	f := promoteFixture(t)
	hitAllocs := func(p *process) float64 {
		ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
		return testing.AllocsPerRun(100, func() {
			ictx.Result, ictx.CacheHit = nil, false
			if err := p.c.HandleInvoke(ictx, failNext); err != nil || !ictx.CacheHit {
				t.Fatalf("L1 hit: %v (hit %v)", err, ictx.CacheHit)
			}
		})
	}
	filled := newProcess(t, f, sharedTier(), false, nil, searchResult)
	filled.call(t, "x")
	want := hitAllocs(filled)
	for _, writerStreams := range []bool{false, true} {
		shared := sharedTier()
		newProcess(t, f, shared, writerStreams, nil, searchResult).call(t, "x")
		reader := newProcess(t, f, shared, false, nil, searchResult)
		reader.call(t, "x")
		if s := reader.c.Stats(); s.TierHits != 1 || reader.origin() != 0 {
			t.Fatalf("writer streams %v: the read was no promotion (tier hits %d, origin calls %d)", writerStreams, s.TierHits, reader.origin())
		}
		if got := hitAllocs(reader); got != want {
			t.Errorf("writer streams %v: promoted entry's L1 hit %v allocs, origin-filled entry's %v", writerStreams, got, want)
		}
	}
	t.Logf("an L1 hit of the search result: %v allocs", want)
}

// TestTierPromotionCallByCopy: the caller of a tier hit owns its result
// — mutating it changes neither the next L1 hit nor the tier — for each
// of the call-by-copy classes and a ref class.
func TestTierPromotionCallByCopy(t *testing.T) {
	f := callByCopyFixture(t)
	classes := append(slices.Clone(callByCopyClasses),
		callByCopyClass{"ref", "Pass by reference", func() any { return "immutable" }, func(any) {}})
	for _, c := range classes {
		t.Run(c.name, func(t *testing.T) {
			shared := sharedTier()
			newProcess(t, f, shared, false, nil, c.result).call(t, "x")
			reader := newProcess(t, f, shared, false, nil, c.result)
			promoted := reader.call(t, "x")
			if reader.c.Stats().TierHits != 1 {
				t.Fatalf("first read was not a tier hit")
			}
			c.mutate(promoted.Result)
			again := reader.call(t, "x")
			if !again.CacheHit || reader.c.Stats().TierHits != 1 {
				t.Fatalf("second read: hit %v, tier hits %d; want an L1 hit", again.CacheHit, reader.c.Stats().TierHits)
			}
			if !reflect.DeepEqual(again.Result, c.result()) {
				t.Errorf("L1 hit after mutating the promoted result: %+v", again.Result)
			}
			if got := heldBy(t, reader.c, f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})); got != c.held {
				t.Errorf("promoted entry held by %q, want %q", got, c.held)
			}
			fresh := newProcess(t, f, shared, false, nil, c.result).call(t, "x")
			if !reflect.DeepEqual(fresh.Result, c.result()) {
				t.Errorf("tier entry after mutating a promoted result: %+v", fresh.Result)
			}
		})
	}
}

// TestTierPromotionDeclinedKeepsWirePayload: an L1 pinned to a
// representation that cannot hold the promoted result — the DOM tree
// needs a message, and a binser entry carries none — keeps the wire
// payload instead, so the next call is still an L1 hit. The cache is
// instrumented: the copy-in stage names the wire representation that
// holds the entry, and records no error.
func TestTierPromotionDeclinedKeepsWirePayload(t *testing.T) {
	f := promoteFixture(t)
	shared := sharedTier()
	newProcess(t, f, shared, false, nil, searchResult).call(t, "x")
	dom, err := rep.NewRegistry(f.reg, f.codec).Store("dom")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	reader := newProcess(t, f, shared, false, dom, searchResult, func(cfg *Config) { cfg.Obs = reg })
	for i := 0; i < 2; i++ {
		ictx := reader.call(t, "x")
		if !ictx.CacheHit || !reflect.DeepEqual(ictx.Result, searchResult()) {
			t.Fatalf("read %d: hit %v, result %T", i, ictx.CacheHit, ictx.Result)
		}
	}
	s := reader.c.Stats()
	if s.TierHits != 1 || s.Hits != 1 || s.Errors != 0 || reader.origin() != 0 {
		t.Errorf("stats %+v, origin calls %d; want one tier hit, then one L1 hit, no errors", s, reader.origin())
	}
	if got := heldBy(t, reader.c, f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})); got != "Binary serialization" {
		t.Errorf("declined promotion held by %q, want the wire representation", got)
	}
	for _, st := range reg.Snapshot().Stages {
		if st.Stage != obs.StageCopyIn {
			continue
		}
		if st.Representation != "Binary serialization" || st.Errors != 0 {
			t.Errorf("copy-in stage %q recorded %d errors, want only the wire representation's, with none", st.Representation, st.Errors)
		}
	}
}

// TestTierPromotionDeclinedTwiceStoresNothing: an xmltmpl entry whose
// envelope decodes but splits into no template (it holds a comment)
// serves an object consumer its result. An L1 pinned to xmltmpl then
// declines the result, and the wire payload fails to split too, so L1
// stores nothing and counts one error. The cache is instrumented, so
// the error lands on the pinned representation's counters.
func TestTierPromotionDeclinedTwiceStoresNothing(t *testing.T) {
	f := promoteFixture(t)
	shared := sharedTier()
	reg := obs.NewRegistry()
	tmpl, err := rep.NewRegistry(f.reg, f.codec).Store("xmltmpl")
	if err != nil {
		t.Fatal(err)
	}
	reader := newProcess(t, f, shared, false, tmpl, searchResult, func(cfg *Config) { cfg.Obs = reg })
	ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
	key, err := reader.c.keygen.Key(ictx)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(f.ictx(t, opGet, searchResult()).ResponseXML)
	end := strings.LastIndex(doc, "</")
	doc = doc[:end] + "<!-- not a template -->" + doc[end:]
	if err := shared.Put(ictx.Ctx, tier.KeyOf([]byte(key)), tier.Entry{Rep: "xmltmpl", Value: []byte(doc)}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		got := reader.call(t, "x")
		if !got.CacheHit || !reflect.DeepEqual(got.Result, searchResult()) {
			t.Fatalf("read %d: hit %v, result %T; want the decoded search result", i, got.CacheHit, got.Result)
		}
		if s := reader.c.Stats(); s.TierHits != int64(i) || s.Hits != 0 || s.Errors != int64(i) || reader.origin() != 0 {
			t.Fatalf("read %d: stats %+v, origin calls %d; want every read a tier hit with one fill error", i, s, reader.origin())
		}
	}
	if got := reg.Snapshot().Representations[tmpl.Name()].Errors; got != 2 {
		t.Errorf("%s errors %d, want 2", tmpl.Name(), got)
	}
}

// TestTierCorruptEntryIsAMiss: a tier entry whose bytes do not decode
// (rep.ErrCorruptWire) is a tier error, and the call goes on to the
// origin as on a tier miss.
func TestTierCorruptEntryIsAMiss(t *testing.T) {
	f := promoteFixture(t)
	shared := sharedTier()
	reader := newProcess(t, f, shared, false, nil, searchResult)
	ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
	key, err := reader.c.keygen.Key(ictx)
	if err != nil {
		t.Fatal(err)
	}
	garbage := tier.Entry{Rep: "binser", Value: []byte{0xff, 0xfe, 0xfd}}
	if err := shared.Put(ictx.Ctx, tier.KeyOf([]byte(key)), garbage); err != nil {
		t.Fatal(err)
	}
	if err := reader.c.wire.LoadWire(garbage.Rep, garbage.Value, f.reqCtx(opGet)); !errors.Is(err, rep.ErrCorruptWire) {
		t.Fatalf("LoadWire of the entry: %v, want ErrCorruptWire", err)
	}
	got := reader.call(t, "x")
	if got.CacheHit || reader.origin() != 1 || !reflect.DeepEqual(got.Result, searchResult()) {
		t.Fatalf("hit %v, origin calls %d, result %T; want an origin miss", got.CacheHit, reader.origin(), got.Result)
	}
	if s := reader.c.Stats(); s.TierErrors != 1 || s.TierHits != 0 {
		t.Errorf("tier errors %d, tier hits %d; want 1, 0", s.TierErrors, s.TierHits)
	}
}
