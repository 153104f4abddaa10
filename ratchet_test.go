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
	"repro/internal/soap"
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

// Twelve runs measured 111.1–111.7 allocs/op and 23 092–23 147 B/op.
var originMissRow = ratchetRow{name: "origin miss", baseAllocs: 111.2, baseBytes: 23_100, maxAllocs: 114, maxBytes: 23_850}

// Twelve runs measured 89.0–89.7 allocs/op and 7 262–7 317 B/op. The
// ceilings are those of the 89.1–89.5 and 7 271–7 303 runs before
// them, which the highest of these runs stays under.
var serverHitRow = ratchetRow{name: "server hit", baseAllocs: 89.1, baseBytes: 7_270, maxAllocs: 91, maxBytes: 7_520}

// Twelve runs measured 5.0 allocs/op and 464 B/op.
var tierHitRow = ratchetRow{name: "tier hit", baseAllocs: 5, baseBytes: 464, maxAllocs: 5.1, maxBytes: 478}

// Twelve runs measured 2.0 allocs/op and 928 B/op.
var l1ObjectRow = ratchetRow{name: "L1 object hit", baseAllocs: 2, baseBytes: 928, maxAllocs: 2.04, maxBytes: 956}

// Twelve runs measured 1.0 allocs/op and 224 B/op.
var l1StreamRow = ratchetRow{name: "L1 stream hit", baseAllocs: 1, baseBytes: 224, maxAllocs: 1.02, maxBytes: 231}

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
			t.Errorf("%s: %.1f %s, ceiling %g", r.name, c.got, c.unit, c.max)
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

	o := startRatchetOrigin(t)
	daemon := startClusterDaemon(t, "")
	cl := newRatchetClient(ctx, t, o, daemon.addr, 1024, false)

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
		ictx, err := cl.search.InvokeContext(ctx, params...)
		if err != nil || ictx.CacheHit {
			t.Fatalf("call %d: err %v, hit %v", i, err, ictx != nil && ictx.CacheHit)
		}
	}
	for i := 0; i < warm; i++ {
		call(i)
	}

	checkDeltas(t, ops, []counterDelta{
		{"transport.attempts", cl.attempts.Load, 1},
		{"tier stores", func() int64 { return cl.remote.TierStats().Stores }, 1},
	}, func() {
		allocs, bytes := perOp(ops, func(i int) { call(warm + i) })
		originMissRow.check(t, allocs, bytes)
	})
}

// TestRatchetTierHit drives the referee's l2_shared workload: doGetItem
// over a key set another client process seeded into the daemon (an
// in-process cluster.Server), read through a client whose L1 holds a
// sixty-fourth of the keys. The reader scans the keys in order, so
// every read misses L1 and is served by the daemon: one tier hit and
// no origin request per call.
func TestRatchetTierHit(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	o := startRatchetOrigin(t)
	daemon := startClusterDaemon(t, "")
	const nkeys, l1, ops = 4096, 64, 4096
	rng := rand.New(rand.NewSource(7))
	values := make([]string, nkeys)
	plist := make([][]soap.Param, nkeys)
	for k := range plist {
		key := fmt.Sprintf("%x-%d", rng.Uint32(), k)
		values[k] = "v:" + key
		o.items.Put(key, values[k])
		plist[k] = googleapi.GetItemParams(key)
	}
	seeder := newRatchetClient(ctx, t, o, daemon.addr, 0, false)
	for k := range plist {
		if _, err := seeder.getItem.InvokeContext(ctx, plist[k]...); err != nil {
			t.Fatalf("seed %d: %v", k, err)
		}
	}

	reader := newRatchetClient(ctx, t, o, daemon.addr, l1, false)
	read := func(i int) {
		k := i % nkeys
		ictx, err := reader.getItem.InvokeContext(ctx, plist[k]...)
		if err != nil || !ictx.CacheHit || ictx.Result != values[k] {
			t.Fatalf("read %d: err %v, hit %v, result %v", i, err, ictx != nil && ictx.CacheHit, ictx.Result)
		}
	}
	for i := 0; i < nkeys; i++ {
		read(i)
	}

	checkDeltas(t, ops, []counterDelta{
		{"core.tier_hits", func() int64 { return reader.cache.Stats().TierHits }, 1},
		{"clusterd.requests", daemon.requests.Load, 1},
		{"transport.attempts", reader.attempts.Load, 0},
		{"transport.bytes_sent", reader.sent.Load, 0},
		{"transport.bytes_received", reader.received.Load, 0},
	}, func() {
		allocs, bytes := perOp(ops, read)
		tierHitRow.check(t, allocs, bytes)
	})
}

// TestRatchetL1Object and TestRatchetL1Stream drive the referee's
// l1_obj and l1_stream workloads: 64 hot doGoogleSearch queries filled
// once from the origin, then read in a fixed random order, every read
// an L1 hit. The object consumer checks the decoded result; the stream
// consumer replays the response into a sink.
func TestRatchetL1Object(t *testing.T) { ratchetL1(t, false, l1ObjectRow) }

func TestRatchetL1Stream(t *testing.T) { ratchetL1(t, true, l1StreamRow) }

func ratchetL1(t *testing.T, stream bool, row ratchetRow) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	o := startRatchetOrigin(t)
	daemon := startClusterDaemon(t, "")
	cl := newRatchetClient(ctx, t, o, daemon.addr, 0, stream)
	const hot, warm, ops = 64, 1000, 4000
	rng := rand.New(rand.NewSource(7))
	queries := make([]string, hot)
	plist := make([][]soap.Param, hot)
	for k := range plist {
		queries[k] = fmt.Sprintf("%x %x h%d", rng.Uint32(), rng.Uint32(), k)
		plist[k] = googleapi.SearchParams("ratchet-key", queries[k], 0, 10, false, "", false, "")
		if ictx, err := cl.search.InvokeContext(ctx, plist[k]...); err != nil || ictx.CacheHit {
			t.Fatalf("fill %d: err %v, hit %v", k, err, ictx != nil && ictx.CacheHit)
		}
	}
	seq := make([]int, warm+ops)
	for i := range seq {
		seq[i] = rng.Intn(hot)
	}
	var sink countingWriter
	hit := func(i int) {
		k := seq[i]
		ictx, err := cl.search.InvokeContext(ctx, plist[k]...)
		if err != nil || !ictx.CacheHit {
			t.Fatalf("hit %d: err %v, hit %v", i, err, ictx != nil && ictx.CacheHit)
		}
		if !stream {
			if r, ok := ictx.Result.(*googleapi.GoogleSearchResult); !ok || r.SearchQuery != queries[k] {
				t.Fatalf("hit %d: result %T", i, ictx.Result)
			}
			return
		}
		wt, ok := ictx.Stream()
		if !ok {
			t.Fatalf("hit %d: result %T is no stream", i, ictx.Result)
		}
		if _, err := wt.WriteTo(&sink); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		hit(i)
	}

	checkDeltas(t, ops, []counterDelta{
		{"core.hits", func() int64 { return cl.cache.Stats().Hits }, 1},
		{"clusterd.requests", daemon.requests.Load, 0},
		{"transport.bytes_sent", cl.sent.Load, 0},
		{"transport.bytes_received", cl.received.Load, 0},
	}, func() {
		allocs, bytes := perOp(ops, func(i int) { hit(warm + i) })
		row.check(t, allocs, bytes)
	})
}

// countingWriter is the stream consumer's sink: it keeps the byte count
// and nothing else.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
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

	checkDeltas(t, ops, []counterDelta{
		{"server.hits", reg.Counter("server.hits").Load, 1},
	}, func() {
		allocs, bytes := perOp(ops, func(i int) { hit(warm + i) })
		serverHitRow.check(t, allocs, bytes)
	})
}

// ratchetOrigin is the origin service of the ratchet rows: the
// googleapi dispatcher with an item store, on loopback HTTP.
type ratchetOrigin struct {
	url   string
	codec *soap.Codec
	items *googleapi.ItemStore
}

func startRatchetOrigin(t *testing.T) *ratchetOrigin {
	t.Helper()
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	items := googleapi.NewItemStore()
	items.Register(disp)
	return &ratchetOrigin{url: serveLoopback(t, disp), codec: codec, items: items}
}

// ratchetClient is one caching client process as the referee builds
// it: its own invalidator and L1 (l1 entries; 0 is unbounded) in
// front of a cluster.Remote to the daemon, and loopback HTTP to the
// origin with one idle connection. The cache keeps a private metrics
// registry, so no stage is timed; attempts counts the transport's
// requests, sent and received the envelope bytes it moved.
type ratchetClient struct {
	cache                    *core.Cache
	attempts, sent, received *obs.Counter
	remote                   *cluster.Remote
	search, getItem          *client.Call
}

func newRatchetClient(ctx context.Context, t *testing.T, o *ratchetOrigin, daemonAddr string, l1 int, stream bool) *ratchetClient {
	t.Helper()
	codec := o.codec
	inv := invalidate.New(googleapi.ItemGraph(), nil)
	remote, err := cluster.New(cluster.Config{Addrs: []string{daemonAddr}, Inv: inv, PoolSize: 1, BaseContext: ctx})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	reg := obs.NewRegistry()
	cache := core.MustNew(core.Config{
		KeyGen:      rep.NewStringKey(),
		Rep:         rep.NewRegistry(codec.Registry(), codec),
		DefaultTTL:  time.Hour,
		MaxEntries:  l1,
		Invalidator: inv,
		Tiers:       []tier.Tier{remote},
		Policy:      core.NewPolicy(0, googleapi.OpGoogleSearch, googleapi.OpGetItem),
	})
	httpTr := &http.Transport{MaxIdleConnsPerHost: 1}
	t.Cleanup(httpTr.CloseIdleConnections)
	tr := &transport.HTTP{Client: &http.Client{Transport: httpTr, Timeout: transport.DefaultTimeout}, Obs: reg}
	call := func(op, action string) *client.Call {
		return client.NewCall(codec, tr, o.url, googleapi.Namespace, op, action, client.Options{
			Handlers:     []client.Handler{cache},
			Retry:        &transport.RetryPolicy{Obs: reg},
			AcceptStream: stream,
		})
	}
	return &ratchetClient{
		cache:    cache,
		attempts: reg.Counter("transport.attempts"),
		sent:     reg.Counter("transport.bytes_sent"),
		received: reg.Counter("transport.bytes_received"),
		remote:   remote,
		search:   call(googleapi.OpGoogleSearch, "urn:GoogleSearchAction"),
		getItem:  call(googleapi.OpGetItem, "urn:GoogleSearchAction"),
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

// counterDelta is a counter a row holds to an exact rise per
// operation: perOp is 1 where every operation must take the path it
// counts, and 0 where none may.
type counterDelta struct {
	name  string
	read  func() int64
	perOp int64
}

// checkDeltas runs measure, which performs ops operations, and fails
// each counter that did not rise by exactly its perOp for each.
func checkDeltas(t *testing.T, ops int, counters []counterDelta, measure func()) {
	t.Helper()
	before := make([]int64, len(counters))
	for i, c := range counters {
		before[i] = c.read()
	}
	measure()
	for i, c := range counters {
		if d := c.read() - before[i]; d != c.perOp*int64(ops) {
			t.Errorf("%s rose by %d over %d operations, want %d each", c.name, d, ops, c.perOp)
		}
	}
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
