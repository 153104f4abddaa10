package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/invalidate"
	"repro/internal/obs"
	"repro/internal/rep"
	"repro/internal/server"
	"repro/internal/tier"
	"repro/internal/transport"
)

// The cost ratchet: serving paths driven through the production stack
// with one goroutine and a fixed seed, each held to ceilings on what
// it allocates per operation and to exact per-operation deltas of the
// counters that show a lost hit or an extra round trip. Counts are
// what this kind of host resolves; timing is the referee's job
// (benchmark/). Each row keeps the counts measured when it was last
// set (its base) beside its ceilings, which sit 2 % (allocs/op) and
// 3 % (B/op) above the highest of those runs. A count more than 5 %
// below its base fails as well: the path got cheaper, and the row
// must be lowered with it. CHANGES.md records every change to a row.
type ratchetRow struct {
	name                  string
	baseAllocs, baseBytes float64 // the middle of the measured range
	maxAllocs, maxBytes   float64
}

// ratchetDrop is how far below its base a count may fall before the
// row must be lowered.
const ratchetDrop = 0.05

// Twelve runs measured 114.3–114.7 allocs/op and 23 148–23 177 B/op.
var originMissRow = ratchetRow{name: "origin miss", baseAllocs: 114.5, baseBytes: 23_160, maxAllocs: 117, maxBytes: 23_900}

// Twelve runs measured 89.1–89.5 allocs/op and 7 271–7 303 B/op.
var serverHitRow = ratchetRow{name: "server hit", baseAllocs: 89.3, baseBytes: 7_285, maxAllocs: 91, maxBytes: 7_520}

// check logs a row's measured counts and fails a count above its
// ceiling or too far below its base.
func (r ratchetRow) check(t *testing.T, allocs, bytes float64) {
	t.Helper()
	t.Logf("%s: %.1f allocs/op, %.0f B/op", r.name, allocs, bytes)
	for _, c := range []struct {
		unit           string
		got, base, max float64
	}{
		{"allocs/op", allocs, r.baseAllocs, r.maxAllocs},
		{"B/op", bytes, r.baseBytes, r.maxBytes},
	} {
		if c.got > c.max {
			t.Errorf("%s: %.1f %s, ceiling %.0f", r.name, c.got, c.unit, c.max)
		}
		if c.got < c.base*(1-ratchetDrop) {
			t.Errorf("%s: %.1f %s, more than %.0f %% below the base %.1f: measure the row again and lower it",
				r.name, c.got, c.unit, 100*ratchetDrop, c.base)
		}
	}
}

// TestRatchetOriginMiss drives never-repeating doGoogleSearch calls the
// way the referee's origin_miss workload does: a caching client (L1 of
// 1024 entries in front of a cluster.Remote) over loopback HTTP to the
// googleapi dispatcher, with an in-process cluster.Server daemon
// behind the tier. Every call misses L1 and L2, is fetched from the
// origin in one attempt, and is written through to the daemon once.
// The L1 is past its capacity when the measurement starts, so each
// fill also evicts. Allocation counts cover the whole process —
// client, origin server and daemon — as the referee's do; the
// collector is off while they are taken, so no pool is drained
// mid-run.
func TestRatchetOriginMiss(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	originURL := serveLoopback(t, disp)

	daemon := startClusterDaemon(t, "")
	inv := invalidate.New(googleapi.ItemGraph(), nil)
	remote, err := cluster.New(cluster.Config{Addrs: []string{daemon.addr}, Inv: inv, PoolSize: 1, BaseContext: ctx})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	cache := core.MustNew(core.Config{
		KeyGen:      rep.NewStringKey(),
		Rep:         rep.NewRegistry(codec.Registry(), codec),
		DefaultTTL:  time.Hour,
		MaxEntries:  1024,
		Invalidator: inv,
		Tiers:       []tier.Tier{remote},
		Policy:      core.NewPolicy(0, googleapi.OpGoogleSearch, googleapi.OpGetItem),
	})
	reg := obs.NewRegistry()
	httpTr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer httpTr.CloseIdleConnections()
	search := client.NewCall(codec,
		&transport.HTTP{Client: &http.Client{Transport: httpTr, Timeout: transport.DefaultTimeout}},
		originURL, googleapi.Namespace, googleapi.OpGoogleSearch, "urn:GoogleSearchAction",
		client.Options{Handlers: []client.Handler{cache}, Retry: &transport.RetryPolicy{Obs: reg}})

	// Queries are drawn from a fixed seed and boxed up front, so the
	// loop allocates nothing of its own.
	const warm, ops = 1100, 1000
	rng := rand.New(rand.NewSource(7))
	queries := make([]any, warm+ops)
	for i := range queries {
		queries[i] = fmt.Sprintf("%x %x q%d", rng.Uint32(), rng.Uint32(), i)
	}
	params := googleapi.SearchParams("ratchet-key", "", 0, 10, false, "", false, "")
	call := func(i int) {
		params[1].Value = queries[i]
		ictx, err := search.InvokeContext(ctx, params...)
		if err != nil || ictx.CacheHit {
			t.Fatalf("call %d: err %v, hit %v", i, err, ictx != nil && ictx.CacheHit)
		}
	}
	for i := 0; i < warm; i++ {
		call(i)
	}

	attempts := reg.Counter("transport.attempts")
	attempts0, stores0 := attempts.Load(), remote.TierStats().Stores
	allocs, bytes := perOp(ops, func(i int) { call(warm + i) })
	originMissRow.check(t, allocs, bytes)
	if d := attempts.Load() - attempts0; d != ops {
		t.Errorf("transport.attempts rose by %d over %d calls, want exactly one each", d, ops)
	}
	if d := remote.TierStats().Stores - stores0; d != ops {
		t.Errorf("tier stores rose by %d over %d calls, want exactly one each", d, ops)
	}
}

// TestRatchetServerHit drives the referee's server_hit workload: a
// plain http.Client with no cache posts 64 pre-encoded doGoogleSearch
// envelopes over loopback to server.ResponseCache in front of the
// googleapi dispatcher. After one miss per envelope every post is a
// hit, replayed from the cache without reaching the dispatcher.
// Allocation counts cover client and server, as in the origin-miss row.
func TestRatchetServerHit(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	originURL := serveLoopback(t, server.NewResponseCache(disp, server.ResponseCacheConfig{Obs: reg}))
	httpTr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer httpTr.CloseIdleConnections()
	hc := &http.Client{Transport: httpTr}

	// The post is the referee's: a fresh request with the two SOAP
	// headers, the body drained into one reused buffer.
	var buf bytes.Buffer
	post := func(body []byte) ([]byte, error) {
		req, err := http.NewRequest(http.MethodPost, originURL, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "text/xml; charset=utf-8")
		req.Header.Set("SOAPAction", `"urn:GoogleSearchAction"`)
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		buf.Reset()
		_, err = io.Copy(&buf, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		return buf.Bytes(), err
	}

	const hot, warm, ops = 64, 1000, 2000
	rng := rand.New(rand.NewSource(7))
	envelopes := make([][]byte, hot)
	wantLen := make([]int, hot)
	for k := range envelopes {
		q := fmt.Sprintf("%x %x h%d", rng.Uint32(), rng.Uint32(), k)
		envelopes[k], err = codec.EncodeRequest(googleapi.Namespace, googleapi.OpGoogleSearch,
			googleapi.SearchParams("ratchet-key", q, 0, 10, false, "", false, ""))
		if err != nil {
			t.Fatal(err)
		}
		body, err := post(envelopes[k])
		if err != nil {
			t.Fatalf("fill %d: %v", k, err)
		}
		wantLen[k] = len(body)
	}
	seq := make([]int, warm+ops)
	for i := range seq {
		seq[i] = rng.Intn(hot)
	}
	hit := func(i int) {
		k := seq[i]
		if body, err := post(envelopes[k]); err != nil || len(body) != wantLen[k] {
			t.Fatalf("post %d: err %v, %d bytes, want %d", i, err, len(body), wantLen[k])
		}
	}
	for i := 0; i < warm; i++ {
		hit(i)
	}

	hits := reg.Counter("server.hits")
	hits0 := hits.Load()
	allocs, bytes := perOp(ops, func(i int) { hit(warm + i) })
	serverHitRow.check(t, allocs, bytes)
	if d := hits.Load() - hits0; d != ops {
		t.Errorf("server.hits rose by %d over %d posts, want exactly one each", d, ops)
	}
}

// serveLoopback serves h on a loopback port until the test ends and
// returns its URL.
func serveLoopback(t *testing.T, h http.Handler) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	t.Cleanup(func() {
		srv.Close()
		<-served
	})
	return "http://" + lis.Addr().String() + "/"
}

// perOp runs op(0) … op(ops-1) with the collector off, so no pool is
// drained mid-run, and returns what the whole process allocated per
// operation meanwhile.
func perOp(ops int, op func(i int)) (allocs, bytes float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(ops), float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
}
