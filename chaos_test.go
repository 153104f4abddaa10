// Chaos harness for dependency-aware invalidation: a mixed read/write
// load (internal/loadgen) against the dummy Google item operations
// through a fault-injecting transport (internal/faultify), with a
// deliberately lying HTTP validator and background sweep churn, all
// under an oracle asserting the stale-after-write invariant: once a
// write of value v to key k has returned, no later read of k may
// observe a value older than v — not from a hit, not from a 304
// revalidation, not from degraded stale-on-error serving. Run it with
// -race; the scheduler noise is part of the test.
package repro_test

import (
	"context"
	"errors"
	"fmt"
	"repro/internal/rep"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faultify"
	"repro/internal/googleapi"
	"repro/internal/invalidate"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/soap"
	"repro/internal/transport"
)

// chaosHarness wires the full stack: dispatcher + item store behind a
// faultify transport, caching client with invalidation in front.
type chaosHarness struct {
	store *googleapi.ItemStore
	fault *faultify.Transport
	cache *core.Cache
	reg   *obs.Registry
	get   *client.Call
	put   *client.Call
}

func newChaosHarness(t *testing.T, fcfg faultify.Config, ttl, staleIfError time.Duration) *chaosHarness {
	t.Helper()
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	store := googleapi.NewItemStore()
	store.Register(disp)
	// A lying validator: the server stamps every response as
	// unmodified-for-an-hour and answers 304 to every conditional
	// request, even after a put changed the data. TTL revalidation alone
	// would resurrect pre-write values; only the epoch check stands
	// between a committed write and a stale 304 refresh.
	disp.SetValidatorPolicy(time.Now().Add(-time.Hour), time.Hour)

	fault := faultify.New(&transport.InProcess{Handler: disp}, fcfg)
	reg := obs.NewRegistry()
	cache := core.MustNew(core.Config{
		KeyGen:       rep.NewStringKey(),
		Rep:          rep.NewRegistry(codec.Registry(), codec),
		DefaultTTL:   ttl,
		StaleIfError: staleIfError,
		Revalidate:   true,
		Coalesce:     true,
		Obs:          reg,
		Invalidator:  invalidate.New(googleapi.ItemGraph(), reg),
		Policy: core.Policy{
			DefaultExplicit: true, // writes and unknown ops bypass the cache
			Operations: map[string]core.OperationPolicy{
				googleapi.OpGetItem: {Cacheable: true},
			},
		},
	})
	mkCall := func(op string) *client.Call {
		return client.NewCall(codec, fault, googleapi.Endpoint, googleapi.Namespace,
			op, "urn:GoogleSearchAction",
			client.Options{Handlers: []client.Handler{cache}})
	}
	return &chaosHarness{
		store: store,
		fault: fault,
		cache: cache,
		reg:   reg,
		get:   mkCall(googleapi.OpGetItem),
		put:   mkCall(googleapi.OpPutItem),
	}
}

// TestChaosNoStaleAfterWrite is the adversarial proof. 16 virtual
// users issue a mixed profile over 8 hot keys — hits, cold misses, and
// write-through puts — while the transport injects failures,
// truncations, and garbled envelopes, the server lies in every 304,
// entries expire on a millisecond TTL, degraded serving is armed, and
// a background goroutine sweeps and clears the cache. The per-key
// floor oracle must never observe a pre-write value.
func TestChaosNoStaleAfterWrite(t *testing.T) {
	h := newChaosHarness(t, faultify.Config{
		ErrorRate:    0.05,
		TruncateRate: 0.02,
		GarbleRate:   0.02,
		Seed:         42,
	}, 2*time.Millisecond, 500*time.Millisecond)

	const hotKeys = 8
	hot := make([]string, hotKeys)
	for i := range hot {
		hot[i] = fmt.Sprintf("k%d", i)
	}
	var (
		writeMu    [hotKeys]sync.Mutex   // serializes writers per key: backend values stay monotone
		attempted  [hotKeys]atomic.Int64 // highest value ever sent (even if the call errored)
		committed  [hotKeys]atomic.Int64 // floor: highest value whose put returned success
		violations atomic.Int64
	)
	keyIndex := func(q string) int {
		n, err := strconv.Atoi(strings.TrimPrefix(q, "k"))
		if err != nil || n < 0 || n >= hotKeys {
			return -1
		}
		return n
	}

	// Sweep/Clear churn runs for the whole load: reclamation and even
	// full cache wipes may cost hits but never correctness.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h.cache.SweepExpired()
			if i%13 == 0 {
				h.cache.Clear()
			}
			time.Sleep(time.Millisecond)
		}
	}()

	ctx := context.Background()
	res, err := loadgen.RunContext(ctx, loadgen.Config{
		Concurrency: 16,
		Requests:    4000,
		HitRatio:    0.55,
		WriteRatio:  0.15,
		HotQueries:  hot,
		MissQuery:   func(i int) string { return fmt.Sprintf("cold-%d", i) },
		Do: func(q string) error {
			k := keyIndex(q)
			var floor int64
			if k >= 0 {
				floor = committed[k].Load()
			}
			res, err := h.get.Invoke(ctx, googleapi.GetItemParams(q)...)
			if err != nil {
				return err // injected or decode failure; nothing was served
			}
			if k < 0 {
				return nil
			}
			got := parseChaosValue(res)
			if got < floor {
				violations.Add(1)
				return fmt.Errorf("stale-after-write: key %s read %d, floor %d", q, got, floor)
			}
			return nil
		},
		Write: func(q string) error {
			k := keyIndex(q)
			writeMu[k].Lock()
			defer writeMu[k].Unlock()
			v := attempted[k].Load() + 1
			attempted[k].Store(v)
			_, err := h.put.Invoke(ctx, googleapi.PutItemParams(q, strconv.FormatInt(v, 10))...)
			if err == nil {
				// The put returned: the cache bumped the write-set epochs
				// before HandleInvoke returned, so any read starting now
				// must see at least v.
				committed[k].Store(v)
			}
			// On error the write may or may not have reached the store;
			// the floor stays put (conservative) and the cache bumped
			// anyway (also conservative).
			return err
		},
		Classify: func(err error) string {
			if errors.Is(err, faultify.ErrInjected) {
				return "injected"
			}
			if strings.Contains(err.Error(), "stale-after-write") {
				return "violation"
			}
			return "decode"
		},
	})
	close(stop)
	churn.Wait()
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("chaos run: %v", res)
	t.Logf("faults injected: %+v", h.fault.Stats())
	stats := h.cache.Stats()
	t.Logf("cache: hits=%d misses=%d invalidations=%d staleServes=%d staleRefused=%d revalidations=%d",
		stats.Hits, stats.Misses, stats.Invalidations, stats.StaleServes, stats.StaleRefused, stats.Revalidations)

	if n := violations.Load(); n != 0 {
		t.Fatalf("%d stale-after-write violations", n)
	}
	if res.Classes["violation"] != 0 {
		t.Fatalf("loadgen classified %d violations", res.Classes["violation"])
	}
	if stats.Invalidations == 0 {
		t.Error("chaos run recorded no invalidations; the write path was not exercised")
	}
	if res.Writes == 0 {
		t.Error("chaos run issued no writes")
	}

	// The invalidation state must be visible through obs: epoch gauges
	// in the inspection snapshot and the bump counter.
	snap := h.reg.Snapshot()
	if snap.Counters["invalidate.bumps"] == 0 {
		t.Error("obs counter invalidate.bumps is zero")
	}
	epochs, ok := snap.Inspections["invalidation"].(map[string]uint64)
	if !ok {
		t.Fatalf("obs inspection %q missing or wrong type: %T", "invalidation", snap.Inspections["invalidation"])
	}
	if epochs["item:k0"] == 0 && epochs["items"] == 0 {
		t.Errorf("epoch gauges empty after %d writes: %v", res.Writes, epochs)
	}
}

// parseChaosValue turns a doGetItem result into its integer value; the
// empty string (never written) is 0.
func parseChaosValue(res any) int64 {
	s, _ := res.(string)
	if s == "" {
		return 0
	}
	n, _ := strconv.ParseInt(s, 10, 64)
	return n
}

// TestChaosLyingValidatorCannotResurrect pins the deterministic core of
// the chaos claim without load: fill, let the TTL lapse, write through,
// and demand the next read refetch — even though the server will
// happily answer 304 to a conditional request for the invalidated
// entry.
func TestChaosLyingValidatorCannotResurrect(t *testing.T) {
	h := newChaosHarness(t, faultify.Config{}, time.Millisecond, 0)
	ctx := context.Background()

	mustPut := func(key, val string) {
		t.Helper()
		if _, err := h.put.Invoke(ctx, googleapi.PutItemParams(key, val)...); err != nil {
			t.Fatal(err)
		}
	}
	get := func(key string) string {
		t.Helper()
		res, err := h.get.Invoke(ctx, googleapi.GetItemParams(key)...)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := res.(string)
		return s
	}

	mustPut("x", "1")
	if got := get("x"); got != "1" {
		t.Fatalf("initial read = %q, want 1", got)
	}
	time.Sleep(5 * time.Millisecond) // TTL lapses; entry is revalidation bait
	mustPut("x", "2")
	if got := get("x"); got != "2" {
		t.Fatalf("post-write read = %q, want 2 (304 resurrected a stale entry)", got)
	}
	if inv := h.cache.Stats().Invalidations; inv == 0 {
		t.Error("no invalidation recorded for the write")
	}
}

// TestChaosStaleOnErrorRefusesAfterWrite pins the degraded-serving arm
// deterministically: a scripted outage immediately after a write-through
// must surface the failure rather than serve the pre-write value that
// is still sitting in the stale-on-error window.
func TestChaosStaleOnErrorRefusesAfterWrite(t *testing.T) {
	h := newChaosHarness(t, faultify.Config{}, time.Millisecond, time.Minute)
	ctx := context.Background()

	if _, err := h.put.Invoke(ctx, googleapi.PutItemParams("y", "1")...); err != nil {
		t.Fatal(err)
	}
	if res, err := h.get.Invoke(ctx, googleapi.GetItemParams("y")...); err != nil || res != "1" {
		t.Fatalf("warm read: %v %v", res, err)
	}
	time.Sleep(5 * time.Millisecond) // expire into the grace window

	// Sanity: with no write, the outage is masked by degraded serving.
	h.fault.SetScript([]faultify.Outcome{faultify.Fail})
	ictx, err := h.get.InvokeContext(ctx, googleapi.GetItemParams("y")...)
	if err != nil || !ictx.ServedStale || ictx.Result != "1" {
		t.Fatalf("pre-write degraded serve: err=%v stale=%v res=%v", err, ictx.ServedStale, ictx.Result)
	}

	// Write through, then fail the backend again: the error must
	// surface, because the only stale entry provably predates the write.
	if _, err := h.put.Invoke(ctx, googleapi.PutItemParams("y", "2")...); err != nil {
		t.Fatal(err)
	}
	h.fault.SetScript([]faultify.Outcome{faultify.Fail, faultify.Fail, faultify.Fail})
	ictx, err = h.get.InvokeContext(ctx, googleapi.GetItemParams("y")...)
	if err == nil {
		t.Fatalf("post-write outage served %v (stale=%v), want an error", ictx.Result, ictx.ServedStale)
	}
	if !errors.Is(err, faultify.ErrInjected) {
		// A SOAP fault here would mean the dispatcher answered; the
		// injected failure must be what surfaces.
		var f *soap.Fault
		if errors.As(err, &f) {
			t.Fatalf("backend answered with a fault: %v", err)
		}
	}
	h.fault.SetScript(nil)
	if res, err := h.get.Invoke(ctx, googleapi.GetItemParams("y")...); err != nil || res != "2" {
		t.Fatalf("recovered read: %v %v", res, err)
	}
}
