package cluster

import (
	"context"
	"maps"
	"net"
	"strconv"
	"testing"
	"time"

	"repro/internal/invalidate"
	"repro/internal/tier"
)

// mirrorOf copies a single-daemon Remote's epoch mirror.
func mirrorOf(r *Remote) map[string]uint64 {
	n := r.nodes[0]
	n.epochMu.Lock()
	defer n.epochMu.Unlock()
	return maps.Clone(n.mirror)
}

// tableCounts reads a daemon's table-response counters.
func tableCounts(srv *Server) (full, delta int64) {
	return srv.tableFull.Load(), srv.tableDelta.Load()
}

// TestBumpCostIndependentOfTableSize: one bump costs the same
// allocations, on both ends of the wire, and the same reply bytes
// against a daemon holding 16 keyspaces as against one holding 16384.
// The reply carries what changed since the bumper's mirror, not the
// table. No clock is read.
func TestBumpCostIndependentOfTableSize(t *testing.T) {
	type cost struct {
		allocs float64
		reply  int
	}
	measure := func(keyspaces int) cost {
		dinv := invalidate.New(nil, nil)
		for i := 0; i < keyspaces; i++ {
			dinv.ApplyRemote(invalidate.Keyspace(ksFillPrefix + strconv.Itoa(i)))
		}
		_, addr, stop := startDaemon(t, newFakeTier(dinv), dinv)
		defer stop()
		r := newClient(t, addr, nil)
		defer r.Close()
		ctx := context.Background()
		bump := func() {
			if err := r.BumpEpoch(ctx, []string{string(ksItems)}); err != nil {
				t.Fatal(err)
			}
		}
		bump() // first contact: the whole table
		allocs := testing.AllocsPerRun(50, bump)

		// The same bump once more by hand, to read the reply frame.
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		p, err := encodeBump(r.nodes[0].mirrored(), []string{string(ksItems)})
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, nil, opBump, p); err != nil {
			t.Fatal(err)
		}
		op, resp, err := readFrame(conn, 0)
		if err != nil || op != opTable {
			t.Fatalf("bump reply: op %#x err %v", byte(op), err)
		}
		return cost{allocs: allocs, reply: headerSize + len(resp)}
	}
	small, large := measure(16), measure(16384)
	t.Logf("16 keyspaces: %.0f allocs, %d reply bytes; 16384 keyspaces: %.0f allocs, %d reply bytes",
		small.allocs, small.reply, large.allocs, large.reply)
	if small != large {
		t.Fatalf("bump cost depends on the table size: %+v at 16 keyspaces, %+v at 16384", small, large)
	}
}

// TestSteadyStateRepliesAreDeltas: two processes share one daemon.
// Each gets the whole table at first contact; after that every bump
// and every sync is answered with the epochs changed since the
// sender's mirror, and both mirrors stay equal to the daemon's table.
// A process pushed behind the daemon's journal gets the whole table
// again, once.
func TestSteadyStateRepliesAreDeltas(t *testing.T) {
	dinv := invalidate.New(nil, nil)
	srv, addr, _ := startDaemon(t, newFakeTier(dinv), dinv)
	invA, invB := invalidate.New(nil, nil), invalidate.New(nil, nil)
	rA, rB := newClient(t, addr, invA), newClient(t, addr, invB)
	ctx := context.Background()
	key := tier.KeyOf([]byte("k"))
	get := func(r *Remote) {
		t.Helper()
		if _, _, err := r.Get(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	converged := func(when string) {
		t.Helper()
		want := epochTable(dinv)
		for name, r := range map[string]*Remote{"A": rA, "B": rB} {
			if got := mirrorOf(r); !maps.Equal(got, want) {
				t.Fatalf("%s: %s's mirror %v, daemon %v", when, name, got, want)
			}
		}
	}

	get(rA)
	get(rB)
	if full, delta := tableCounts(srv); full != 2 || delta != 0 {
		t.Fatalf("first contact: %d full, %d delta tables; want 2 full", full, delta)
	}

	// Each round: A writes (BUMP), B hears of it (SYNC), B writes, A
	// hears of it. Four table replies a round, all deltas.
	const rounds = 25
	for i := 0; i < rounds; i++ {
		invA.Bump(ksItems)
		get(rB)
		invB.Bump(ksUsers)
		get(rA)
	}
	if full, delta := tableCounts(srv); full != 2 || delta != 4*rounds {
		t.Fatalf("steady state: %d full, %d delta tables; want 2 full, %d delta", full, delta, 4*rounds)
	}
	converged("steady state")
	for name, inv := range map[string]*invalidate.Invalidator{"A": invA, "B": invB} {
		if inv.Epoch(ksItems) != rounds || inv.Epoch(ksUsers) != rounds {
			t.Fatalf("%s's epochs items=%d users=%d, want %d each (own bumps once, the other's once)",
				name, inv.Epoch(ksItems), inv.Epoch(ksUsers), rounds)
		}
	}

	// Changes neither process made, more than the journal holds.
	behind := rB.nodes[0].mirrored().version
	for {
		if _, ok := dinv.Since(behind, func(invalidate.Keyspace, uint64) {}); !ok {
			break
		}
		for i := 0; i < 256; i++ {
			dinv.ApplyRemote(ksOrders)
		}
	}
	get(rB)
	if full, delta := tableCounts(srv); full != 3 || delta != 4*rounds {
		t.Fatalf("behind the journal: %d full, %d delta tables; want 3 full", full, delta)
	}
	if got := invB.Epoch(ksOrders); got != 1 {
		t.Fatalf("B applied the unseen keyspace %d times, want once", got)
	}
	get(rA)
	invA.Bump(ksItems)
	get(rB)
	if full, delta := tableCounts(srv); full != 4 || delta != 4*rounds+2 {
		t.Fatalf("after catching up: %d full, %d delta tables; want 4 full, %d delta", full, delta, 4*rounds+2)
	}
	converged("after catching up")
}

// TestFirstContactTableIsNonzeroOnly: a daemon that has stamped many
// keyspaces but bumped few answers a first-contact SYNC with the bumped
// ones alone — an absent keyspace reads as epoch 0 at the mirror — and
// the mirror built from it equals the daemon's nonzero epochs.
func TestFirstContactTableIsNonzeroOnly(t *testing.T) {
	const stamped, bumped = 10000, 37
	dinv := invalidate.New(nil, nil)
	for i := 0; i < stamped; i++ {
		dinv.StampWith(invalidate.Keyspace(ksFillPrefix+strconv.Itoa(i)), 0)
	}
	_, addr, _ := startDaemon(t, newFakeTier(dinv), dinv)
	firstSync := func() map[string]uint64 {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := writeFrame(conn, nil, opSync, encodeMetaOnly(respMeta{})); err != nil {
			t.Fatal(err)
		}
		op, resp, err := readFrame(conn, 0)
		if err != nil || op != opTable {
			t.Fatalf("sync reply: op %#x err %v", byte(op), err)
		}
		_, table, err := decodeTable(resp)
		if err != nil {
			t.Fatal(err)
		}
		return table
	}
	if got := firstSync(); len(got) != 0 {
		t.Fatalf("first-contact table of a never-bumped daemon holds %d entries, want 0", len(got))
	}

	for i := 0; i < bumped; i++ {
		dinv.ApplyRemote(invalidate.Keyspace(ksFillPrefix + strconv.Itoa(i*7)))
	}
	nonzero := make(map[string]uint64)
	for ks, epoch := range epochTable(dinv) {
		if epoch != 0 {
			nonzero[ks] = epoch
		}
	}
	if len(epochTable(dinv)) != stamped || len(nonzero) != bumped {
		t.Fatalf("daemon holds %d cells, %d nonzero; want %d, %d", len(epochTable(dinv)), len(nonzero), stamped, bumped)
	}
	if got := firstSync(); !maps.Equal(got, nonzero) {
		t.Fatalf("first-contact table holds %d entries, want the %d bumped ones", len(got), bumped)
	}
	r := newClient(t, addr, invalidate.New(nil, nil))
	if _, _, err := r.Get(context.Background(), tier.KeyOf([]byte("q"))); err != nil {
		t.Fatal(err)
	}
	if got := mirrorOf(r); !maps.Equal(got, nonzero) {
		t.Fatalf("mirror holds %d entries, want the daemon's %d nonzero epochs", len(got), len(nonzero))
	}
}

// epochTable is inv's live keyspace → epoch table.
func epochTable(inv *invalidate.Invalidator) map[string]uint64 {
	out := make(map[string]uint64)
	inv.Range(func(ks invalidate.Keyspace, epoch uint64) { out[string(ks)] = epoch })
	return out
}
