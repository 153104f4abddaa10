package cluster

import (
	"bufio"
	"context"
	"net"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"repro/internal/invalidate"
	"repro/internal/tier"
)

// TestInternBoundHoldsAgainstHostileNames: a peer that sends more
// distinct rep names than maxInterned, in put requests to the daemon
// and in value responses to the client, leaves each side's table at
// the bound, and every name still decodes to its own bytes. A name
// seen again while the table had room comes back as the same string.
func TestInternBoundHoldsAgainstHostileNames(t *testing.T) {
	const names = maxInterned + 40
	repOf := func(i int) string { return "rep-" + strconv.Itoa(i) }
	dinv := invalidate.New(nil, nil)
	ft := newFakeTier(dinv)
	srv, addr, _ := startDaemon(t, ft, dinv)

	// OpPut frames, straight onto the daemon's socket.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	key := func(i int) tier.Key { return tier.KeyOf([]byte(repOf(i))) }
	for i := 0; i < names; i++ {
		p, err := encodePut(srv.BootID(), key(i), tier.Entry{Rep: repOf(i), Value: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, nil, opPut, p); err != nil {
			t.Fatal(err)
		}
		if op, _, err := readFrameInto(br, 0, nil); err != nil || op != opOK {
			t.Fatalf("put %d: op %#x err %v", i, byte(op), err)
		}
	}
	if n := srv.reps.len(); n != maxInterned {
		t.Errorf("daemon interned %d names, bound %d", n, maxInterned)
	}
	for i := 0; i < names; i++ {
		if e, ok, _ := ft.Get(context.Background(), key(i)); !ok || e.Rep != repOf(i) {
			t.Fatalf("entry %d stored under rep %q, want %q", i, e.Rep, repOf(i))
		}
	}

	// The same entries come back to a client as OpValue frames.
	r := newClient(t, addr, nil)
	get := func(i int) string {
		e, ok, err := r.Get(context.Background(), key(i))
		if err != nil || !ok || e.Rep != repOf(i) {
			t.Fatalf("get %d: rep %q ok %v err %v, want %q", i, e.Rep, ok, err, repOf(i))
		}
		return e.Rep
	}
	first := get(0)
	for i := 0; i < names; i++ {
		get(i)
	}
	if n := r.reps.len(); n != maxInterned {
		t.Errorf("client interned %d names, bound %d", n, maxInterned)
	}
	if again := get(0); unsafe.StringData(again) != unsafe.StringData(first) {
		t.Error("a name interned while the table had room came back as a new copy")
	}
}
