package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"maps"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/invalidate"
	"repro/internal/tier"
)

// The keyspaces the cluster tests bump and stamp; package-level so
// every spelling has one source of truth (epochgraph).
const (
	ksItems  = invalidate.Keyspace("items")
	ksUsers  = invalidate.Keyspace("users")
	ksOrders = invalidate.Keyspace("orders")

	// ksFillPrefix names the keyspaces tests bump only to grow a
	// daemon's epoch table.
	ksFillPrefix = "fill:"
)

// fakeTier is a daemon-side store for protocol tests: a plain map plus
// the daemon invalidator for epoch operations. Stamp validation (the
// real daemon's core.Cache does it) is out of scope here — these tests
// exercise the wire, the routing, and the epoch propagation.
type fakeTier struct {
	inv *invalidate.Invalidator

	mu      sync.Mutex
	entries map[tier.Key]tier.Entry
	puts    int
}

func newFakeTier(inv *invalidate.Invalidator) *fakeTier {
	return &fakeTier{inv: inv, entries: make(map[tier.Key]tier.Entry)}
}

func (f *fakeTier) Name() string { return "fake" }

func (f *fakeTier) Get(_ context.Context, key tier.Key) (tier.Entry, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.entries[key]
	return e, ok, nil
}

func (f *fakeTier) PutStamps(_ tier.Key, keyspaces []string) []tier.Stamp {
	out := make([]tier.Stamp, len(keyspaces))
	for i, ks := range keyspaces {
		out[i] = tier.Stamp{Keyspace: ks, Epoch: f.inv.Epoch(invalidate.Keyspace(ks))}
	}
	return out
}

func (f *fakeTier) Put(_ context.Context, key tier.Key, e tier.Entry) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	e.Value = bytes.Clone(e.Value) // Put borrows the value (tier.Tier)
	f.entries[key] = e
	f.puts++
	return nil
}

func (f *fakeTier) Delete(_ context.Context, key tier.Key) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.entries, key)
	return nil
}

func (f *fakeTier) BumpEpoch(_ context.Context, keyspaces []string) error {
	for _, ks := range keyspaces {
		f.inv.ApplyRemote(invalidate.Keyspace(ks))
	}
	return nil
}

func (f *fakeTier) TierStats() tier.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return tier.Stats{Entries: len(f.entries)}
}

func (f *fakeTier) putCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.puts
}

// startDaemon boots a Server over a loopback listener and returns it
// with its address. The returned stop closes it (idempotent).
func startDaemon(t *testing.T, tt tier.Tier, inv *invalidate.Invalidator) (*Server, string, func()) {
	t.Helper()
	srv, err := NewServer(ServerConfig{Tier: tt, Inv: inv})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), lis) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			srv.Close()
			if err := <-done; err != nil {
				t.Errorf("Serve: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return srv, lis.Addr().String(), stop
}

func newClient(t *testing.T, addr string, inv *invalidate.Invalidator) *Remote {
	t.Helper()
	r, err := New(Config{Addrs: []string{addr}, Inv: inv, BaseContext: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestClientServerRoundTrip(t *testing.T) {
	dinv := invalidate.New(nil, nil)
	ft := newFakeTier(dinv)
	_, addr, _ := startDaemon(t, ft, dinv)
	r := newClient(t, addr, nil)
	ctx := context.Background()

	key := tier.KeyOf([]byte("query-1"))
	if _, ok, err := r.Get(ctx, key); err != nil || ok {
		t.Fatalf("cold get: ok=%v err=%v", ok, err)
	}
	// Stamps must come from PutStamps: they pin the boot ID the epochs
	// were mirrored under, and the daemon drops fills pinned to another
	// incarnation (or to boot 0, the never-contacted sentinel).
	want := tier.Entry{
		Rep:    "binser",
		Value:  []byte("serialized result"),
		TTL:    30 * time.Second,
		Stamps: r.PutStamps(key, []string{string(ksItems)}),
	}
	if err := r.Put(ctx, key, want); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, ok, err := r.Get(ctx, key)
	if err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	if got.Rep != want.Rep || string(got.Value) != string(want.Value) || got.TTL != want.TTL {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if err := r.Delete(ctx, key); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, ok, _ := r.Get(ctx, key); ok {
		t.Fatal("entry survived delete")
	}
	st := r.TierStats()
	if st.Hits != 1 || st.Misses != 2 || st.Stores != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestEpochPropagation is the heart of the design: process A bumps a
// keyspace locally; the hook pushes it to the daemon before the bump
// call returns; process B learns of it on its next contact — ANY
// contact — and its local invalidator advances, staling B's L1
// entries, without B ever being messaged directly.
func TestEpochPropagation(t *testing.T) {
	dinv := invalidate.New(nil, nil)
	ft := newFakeTier(dinv)
	_, addr, _ := startDaemon(t, ft, dinv)

	invA := invalidate.New(nil, nil)
	invB := invalidate.New(nil, nil)
	newClient(t, addr, invA) // A: hook registered by New
	rB := newClient(t, addr, invB)
	ctx := context.Background()

	// B stamps an entry under the current (zero) epoch, as its cache
	// fill path would.
	ks := ksItems
	stamp := invB.StampWith(ks, invB.Epoch(ks))
	if invalidate.Stale(invalidate.Stamps{}.With(stamp)) {
		t.Fatal("fresh stamp already stale")
	}

	// A commits a write: its local bump fires the hook synchronously.
	invA.Bump(ks)
	if got := dinv.Epoch(ks); got != 1 {
		t.Fatalf("daemon epoch after A's bump = %d, want 1", got)
	}
	// A's own cell advanced locally (the local bump), and the table in
	// the bump response must NOT have advanced it twice.
	if got := invA.Epoch(ks); got != 1 {
		t.Fatalf("A's epoch after its own bump = %d, want 1 (no echo)", got)
	}

	// B has heard nothing yet.
	if invalidate.Stale(invalidate.Stamps{}.With(stamp)) {
		t.Fatal("B stale before any daemon contact")
	}
	// Any contact at all propagates: a plain miss on an unrelated key.
	if _, ok, err := rB.Get(ctx, tier.KeyOf([]byte("unrelated"))); err != nil || ok {
		t.Fatalf("B get: ok=%v err=%v", ok, err)
	}
	if !invalidate.Stale(invalidate.Stamps{}.With(stamp)) {
		t.Fatal("B's stamp still fresh after contacting the daemon")
	}
	if got := invB.Epoch(ks); got != 1 {
		t.Fatalf("B's epoch = %d, want 1", got)
	}
}

// TestPutStampsColdStart: before first contact the mirror is empty, so
// stamps are all-zero — the conservative choice (the daemon refuses
// fills for keyspaces it has bumped).
func TestPutStampsColdStart(t *testing.T) {
	r, err := New(Config{Addrs: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stamps := r.PutStamps(tier.Key{Hi: 1}, []string{"items", "users"})
	for _, s := range stamps {
		if s.Epoch != 0 {
			t.Fatalf("cold stamp %+v, want epoch 0", s)
		}
	}
}

// TestMirrorFeedsPutStamps: after contact, PutStamps reflects the
// daemon's table.
func TestMirrorFeedsPutStamps(t *testing.T) {
	dinv := invalidate.New(nil, nil)
	ft := newFakeTier(dinv)
	_, addr, _ := startDaemon(t, ft, dinv)
	r := newClient(t, addr, invalidate.New(nil, nil))
	ctx := context.Background()

	dinv.ApplyRemote(ksItems)
	dinv.ApplyRemote(ksItems)
	dinv.ApplyRemote(ksUsers)
	key := tier.KeyOf([]byte("q"))
	if _, _, err := r.Get(ctx, key); err != nil {
		t.Fatal(err)
	}
	stamps := r.PutStamps(key, []string{"items", "users", "untouched"})
	want := map[string]uint64{"items": 2, "users": 1, "untouched": 0}
	for _, s := range stamps {
		if s.Epoch != want[s.Keyspace] {
			t.Fatalf("stamp %+v, want epoch %d", s, want[s.Keyspace])
		}
	}
}

// TestDaemonRestart: a new daemon incarnation on the same address must
// (a) invalidate the client's local epochs — bumps pushed to the old
// incarnation are lost — and (b) refuse fills stamped under the old
// boot.
func TestDaemonRestart(t *testing.T) {
	dinv1 := invalidate.New(nil, nil)
	ft1 := newFakeTier(dinv1)
	_, addr, stop1 := startDaemon(t, ft1, dinv1)

	cinv := invalidate.New(nil, nil)
	r := newClient(t, addr, cinv)
	ctx := context.Background()

	// Establish contact and a local cell; the old incarnation has bumped
	// a keyspace the new one never will.
	ks := ksItems
	stamp := cinv.StampWith(ks, cinv.Epoch(ks))
	key := tier.KeyOf([]byte("q"))
	dinv1.ApplyRemote(ksUsers)
	dinv1.ApplyRemote(ksUsers)
	if _, _, err := r.Get(ctx, key); err != nil {
		t.Fatal(err)
	}
	oldBoot := r.nodes[0].bootID
	if oldBoot == 0 {
		t.Fatal("no boot id after contact")
	}
	if got := mirrorOf(r); got[string(ksUsers)] != 2 {
		t.Fatalf("mirror before restart = %v, want users at 2", got)
	}

	// Restart on the same port.
	stop1()
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	dinv2 := invalidate.New(nil, nil)
	dinv2.ApplyRemote(ksItems)
	ft2 := newFakeTier(dinv2)
	srv2, err := NewServer(ServerConfig{Tier: ft2, Inv: dinv2})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv2.Serve(context.Background(), lis) }()
	t.Cleanup(func() { srv2.Close(); <-done })

	// Next contact retries over a fresh conn, sees the new boot ID, and
	// nukes local epochs. Its sync still names the old boot, so the new
	// incarnation answers with its whole table, and the mirror holds that
	// table and nothing from the old incarnation.
	if _, _, err := r.Get(ctx, key); err != nil {
		t.Fatalf("get across restart: %v", err)
	}
	if got := r.nodes[0].bootID; got == oldBoot || got != srv2.BootID() {
		t.Fatalf("boot id %d, want new %d (old %d)", got, srv2.BootID(), oldBoot)
	}
	if full, delta := srv2.tableFull.Load(), srv2.tableDelta.Load(); full != 1 || delta != 0 {
		t.Fatalf("first sync after restart: %d full, %d delta tables; want 1 full", full, delta)
	}
	if got := r.restarts.Load(); got != 1 {
		t.Fatalf("restarts = %d, want 1 (InvalidateAll on the boot change)", got)
	}
	if !invalidate.Stale(invalidate.Stamps{}.With(stamp)) {
		t.Fatal("pre-restart stamp still fresh after restart detection")
	}
	if got, want := mirrorOf(r), epochTable(dinv2); !maps.Equal(got, want) {
		t.Fatalf("mirror after restart = %v, want the new incarnation's %v", got, want)
	}

	// A put minted before the client refreshed its boot view is dropped.
	r.nodes[0].epochMu.Lock()
	r.nodes[0].bootID = oldBoot // simulate a racing fill from the old view
	r.nodes[0].epochMu.Unlock()
	if err := r.Put(ctx, key, tier.Entry{Rep: "xml", Value: []byte("old")}); err != nil {
		t.Fatalf("stale-boot put errored: %v", err)
	}
	if ft2.putCount() != 0 {
		t.Fatal("daemon stored a fill stamped under the previous boot")
	}
	// The OK meta carried the new boot, so the client resynced and the
	// retry sticks.
	if err := r.Put(ctx, key, tier.Entry{Rep: "xml", Value: []byte("new")}); err != nil {
		t.Fatal(err)
	}
	if ft2.putCount() != 1 {
		t.Fatal("fresh-boot put not stored")
	}
}

// TestPendingBumpFlush: bumps that cannot reach the daemon stay
// pending and flush before the next successful request, so a Get is
// never answered by a daemon missing this process's writes.
func TestPendingBumpFlush(t *testing.T) {
	dinv := invalidate.New(nil, nil)
	ft := newFakeTier(dinv)
	_, addr, stop := startDaemon(t, ft, dinv)

	cinv := invalidate.New(nil, nil)
	r := newClient(t, addr, cinv)
	ctx := context.Background()
	if _, _, err := r.Get(ctx, tier.KeyOf([]byte("warm"))); err != nil {
		t.Fatal(err)
	}

	// Kill the daemon; a local bump cannot be pushed.
	stop()
	r.Close() // drop pooled conns so the failure is immediate
	cinv.Bump(ksItems)
	r.nodes[0].pendingMu.Lock()
	_, pending := r.nodes[0].pending["items"]
	r.nodes[0].pendingMu.Unlock()
	if !pending {
		t.Fatal("unreachable bump not pending")
	}

	// Daemon comes back (same address, new incarnation).
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	dinv2 := invalidate.New(nil, nil)
	srv2, err := NewServer(ServerConfig{Tier: newFakeTier(dinv2), Inv: dinv2})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv2.Serve(context.Background(), lis) }()
	t.Cleanup(func() { srv2.Close(); <-done })

	// The next Get must flush the pending bump first.
	if _, _, err := r.Get(ctx, tier.KeyOf([]byte("after"))); err != nil {
		t.Fatalf("get after daemon return: %v", err)
	}
	if got := dinv2.Epoch(ksItems); got != 1 {
		t.Fatalf("daemon epoch after flush = %d, want 1", got)
	}
	r.nodes[0].pendingMu.Lock()
	left := len(r.nodes[0].pending)
	r.nodes[0].pendingMu.Unlock()
	if left != 0 {
		t.Fatalf("%d bumps still pending after flush", left)
	}
}

// TestRingDistribution: keys spread across addresses and routing is
// deterministic.
func TestRingDistribution(t *testing.T) {
	addrs := []string{"a:1", "b:1", "c:1"}
	rg := newRing(addrs)
	counts := make([]int, len(addrs))
	for i := 0; i < 3000; i++ {
		k := tier.KeyOf([]byte{byte(i), byte(i >> 8), 'x'})
		n := rg.node(k)
		if n != rg.node(k) {
			t.Fatal("routing not deterministic")
		}
		counts[n]++
	}
	for i, c := range counts {
		if c < 300 {
			t.Fatalf("address %d owns only %d/3000 keys: %v", i, c, counts)
		}
	}
}

// TestServerRefusesGarbage: a client speaking garbage gets an OpErr
// frame and the connection is dropped; the daemon survives.
func TestServerRefusesGarbage(t *testing.T) {
	dinv := invalidate.New(nil, nil)
	ft := newFakeTier(dinv)
	_, addr, _ := startDaemon(t, ft, dinv)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte{99, 99, 99, 99, 99, 99, 99, 99}); err != nil {
		t.Fatal(err)
	}
	op, payload, err := readFrame(conn, 0)
	if err != nil {
		t.Fatalf("no error frame: %v", err)
	}
	if op != opErr {
		t.Fatalf("opcode %#x, want OpErr", byte(op))
	}
	if msg, err := decodeErr(payload); err != nil || msg == "" {
		t.Fatalf("error message %q, err=%v", msg, err)
	}

	// The daemon still serves new connections.
	r := newClient(t, addr, nil)
	if _, ok, err := r.Get(context.Background(), tier.Key{Hi: 1}); err != nil || ok {
		t.Fatalf("daemon dead after garbage: ok=%v err=%v", ok, err)
	}
}

// TestBumpFlushSplitsLargePendingSets: a pending set too large for one
// bump frame — more names than its u16 count holds, or more bytes than
// the frame bound — flushes as several frames, and the next Get goes
// through. A name no frame can carry fails the flush and counts as
// deferred.
func TestBumpFlushSplitsLargePendingSets(t *testing.T) {
	long := strings.Repeat("k", 100)
	for _, tc := range []struct {
		name       string
		maxPayload int
		names      int
		prefix     string
	}{
		{"more names than a count field holds", 0, 70000, ksFillPrefix},
		{"more bytes than a frame holds", 4096, 100, long},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dinv := invalidate.New(nil, nil)
			_, addr, _ := startDaemon(t, newFakeTier(dinv), dinv)
			r, err := New(Config{Addrs: []string{addr}, MaxPayload: tc.maxPayload})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			n := r.nodes[0]
			// A daemon outage under write load leaves this behind.
			n.pendingMu.Lock()
			for i := 0; i < tc.names; i++ {
				n.pending[tc.prefix+strconv.Itoa(i)] = struct{}{}
			}
			n.pendingMu.Unlock()

			if _, _, err := r.Get(context.Background(), tier.KeyOf([]byte("q"))); err != nil {
				t.Fatalf("get after %d pending bumps: %v", tc.names, err)
			}
			n.pendingMu.Lock()
			left := len(n.pending)
			n.pendingMu.Unlock()
			if left != 0 {
				t.Fatalf("%d of %d bumps still pending", left, tc.names)
			}
			for i := 0; i < tc.names; i++ {
				if got := dinv.Epoch(invalidate.Keyspace(tc.prefix + strconv.Itoa(i))); got != 1 {
					t.Fatalf("daemon epoch of name %d = %d, want 1", i, got)
				}
			}
			if got := len(mirrorOf(r)); got != tc.names {
				t.Fatalf("mirror holds %d keyspaces, want %d", got, tc.names)
			}
			if d := r.deferred.Load(); d != 0 {
				t.Fatalf("deferred = %d after a clean flush", d)
			}
		})
	}

	t.Run("a name no frame can carry counts as deferred", func(t *testing.T) {
		dinv := invalidate.New(nil, nil)
		_, addr, _ := startDaemon(t, newFakeTier(dinv), dinv)
		r := newClient(t, addr, nil)
		ctx := context.Background()
		if _, _, err := r.Get(ctx, tier.KeyOf([]byte("warm"))); err != nil {
			t.Fatal(err)
		}
		n := r.nodes[0]
		n.pendingMu.Lock()
		n.pending[strings.Repeat("k", 1<<16)] = struct{}{}
		n.pendingMu.Unlock()
		if _, _, err := r.Get(ctx, tier.KeyOf([]byte("q"))); !errors.Is(err, errMalformed) {
			t.Fatalf("get with a 64 KiB keyspace pending: %v, want ErrMalformed", err)
		}
		if d := r.deferred.Load(); d != 1 {
			t.Fatalf("deferred = %d, want 1", d)
		}
	})
}

// TestDaemonCopiesPutValues: two puts of equal size, one after the
// other on one connection, land in the same read buffer. Each stored
// value must still be its own, at exactly its length: decodePut hands
// the tier a value aliasing the buffer it reads requests into, and
// engine.Tier, the daemon's tier, copies what it keeps.
func TestDaemonCopiesPutValues(t *testing.T) {
	dinv := invalidate.New(nil, nil)
	daemon := engine.NewTier(engine.Config{}, dinv, nil)
	srv, addr, _ := startDaemon(t, daemon, dinv)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)

	values := map[tier.Key][]byte{
		tier.KeyOf([]byte("a")): bytes.Repeat([]byte{'a'}, 512),
		tier.KeyOf([]byte("b")): bytes.Repeat([]byte{'b'}, 512),
	}
	for key, v := range values {
		p, err := encodePut(srv.BootID(), key, tier.Entry{Rep: "raw", Value: v})
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, nil, opPut, p); err != nil {
			t.Fatal(err)
		}
		if op, _, err := readFrameInto(br, 0, nil); err != nil || op != opOK {
			t.Fatalf("put: op %#x err %v", byte(op), err)
		}
	}
	for key, want := range values {
		e, ok, _ := daemon.Get(context.Background(), key)
		if !ok || !bytes.Equal(e.Value, want) {
			t.Fatalf("stored value %.8q…, want %.8q…", e.Value, want)
		}
		if cap(e.Value) != len(want) {
			t.Fatalf("stored value has capacity %d for %d bytes", cap(e.Value), len(want))
		}
	}
}

// TestRoundTripAllocs bounds the allocations of one warm round trip,
// client and daemon together (AllocsPerRun counts the whole process).
// A hit keeps the client's response payload, which the value aliases;
// its rep name is interned. A miss keeps nothing: its meta-only
// response is read into the connection's buffer. A put builds its frame
// in the connection's scratch; the daemon copies out the stamp slice
// and the stamp's keyspace, and the tier keeps one copy of the value
// (tier.Tier.Put borrows it); the rep name is interned there too. Framing,
// headers and meta-only responses allocate nothing on either end. The
// least of several runs is taken: the race detector's runtime adds
// allocations now and then.
func TestRoundTripAllocs(t *testing.T) {
	dinv := invalidate.New(nil, nil)
	_, addr, _ := startDaemon(t, newFakeTier(dinv), dinv)
	r := newClient(t, addr, nil)
	ctx := context.Background()
	hit, miss := tier.KeyOf([]byte("hit")), tier.KeyOf([]byte("miss"))
	if _, _, err := r.Get(ctx, miss); err != nil { // first contact
		t.Fatal(err)
	}
	e := tier.Entry{Rep: "binser", Value: make([]byte, 256), TTL: time.Minute,
		Stamps: r.PutStamps(hit, []string{string(ksItems)})}
	put := func() {
		if err := r.Put(ctx, hit, e); err != nil {
			t.Fatal(err)
		}
	}
	get := func(key tier.Key) func() {
		return func() {
			if _, _, err := r.Get(ctx, key); err != nil {
				t.Fatal(err)
			}
		}
	}
	put()
	least := func(f func()) float64 {
		m := testing.AllocsPerRun(10, f)
		for i := 0; i < 20; i++ {
			m = min(m, testing.AllocsPerRun(10, f))
		}
		return m
	}
	for _, tc := range []struct {
		name string
		f    func()
		max  float64
	}{
		{"get hit", get(hit), 1},
		{"get miss", get(miss), 0},
		{"put", put, 3},
	} {
		if got := least(tc.f); got > tc.max {
			t.Errorf("%s: %v allocs per round trip, want ≤ %v", tc.name, got, tc.max)
		}
	}
}

// TestPutRetryResendsSameFrame: a put whose pooled connection fails
// after the frame went out is retried on a fresh connection, and both
// attempts carry appendFrame(opPut, encodePut(...)) byte for byte. The
// first attempt builds the frame over a scratch buffer an earlier
// request left behind, the retry over the new connection's empty one.
func TestPutRetryResendsSameFrame(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	puts := make(chan []byte, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for attempt := 0; attempt < 2; attempt++ {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			br := bufio.NewReader(conn)
			if attempt == 0 { // a get first, answered, so the scratch is used
				if _, _, err := readFrameInto(br, 0, nil); err != nil {
					conn.Close()
					return
				}
				writeFrame(conn, nil, opMiss, encodeMetaOnly(respMeta{}))
			}
			op, payload, err := readFrameInto(br, 0, nil)
			if err == nil && op == opPut {
				puts <- appendFrame(nil, op, payload)
			}
			if attempt == 1 {
				writeFrame(conn, nil, opOK, encodeMetaOnly(respMeta{}))
			}
			conn.Close() // the first attempt's connection dies unanswered
		}
	}()
	t.Cleanup(func() { lis.Close(); <-done })

	r := newClient(t, lis.Addr().String(), nil)
	ctx := context.Background()
	key := tier.KeyOf([]byte("retried"))
	if _, _, err := r.Get(ctx, key); err != nil {
		t.Fatal(err)
	}
	e := tier.Entry{Rep: "binser", Value: bytes.Repeat([]byte("v"), 300), TTL: time.Minute,
		Stamps: []tier.Stamp{{Keyspace: "items", Epoch: 3}}}
	if err := r.Put(ctx, key, e); err != nil {
		t.Fatal(err)
	}
	p, err := encodePut(0, key, e)
	if err != nil {
		t.Fatal(err)
	}
	want := appendFrame(nil, opPut, p)
	for attempt := 0; attempt < 2; attempt++ {
		if got := <-puts; !bytes.Equal(got, want) {
			t.Errorf("attempt %d sent\n%x\nwant\n%x", attempt+1, got, want)
		}
	}
}
