package invalidate

import (
	"testing"

	"repro/internal/obs"
)

// TestOnBumpFiresForLocalBumpsOnly pins the echo-prevention contract:
// CommitWrite and Bump fire the registered hooks with the bumped
// keyspaces; ApplyRemote and InvalidateAll — bumps that ORIGINATED
// elsewhere — must not, or two processes pushing to each other would
// loop forever.
func TestOnBumpFiresForLocalBumpsOnly(t *testing.T) {
	inv := New(itemGraph(), obs.NewRegistry())
	var fired [][]Keyspace
	inv.OnBump(func(ks []Keyspace) {
		cp := append([]Keyspace(nil), ks...)
		fired = append(fired, cp)
	})

	inv.CommitWrite(opPutItem, params("x"))
	if len(fired) != 1 || len(fired[0]) != 2 {
		t.Fatalf("CommitWrite hook: got %v, want one firing with two keyspaces", fired)
	}
	inv.Bump(ksItems)
	if len(fired) != 2 || len(fired[1]) != 1 || fired[1][0] != ksItems {
		t.Fatalf("Bump hook: got %v", fired)
	}

	inv.ApplyRemote(ksItemX)
	inv.InvalidateAll()
	if len(fired) != 2 {
		t.Fatalf("remote-origin bumps fired hooks: %v", fired[2:])
	}
}

// TestApplyRemoteStalesStamps verifies the receive side: a remote bump
// invalidates local stamps exactly like a local one.
func TestApplyRemoteStalesStamps(t *testing.T) {
	inv := New(itemGraph(), obs.NewRegistry())
	stamps := inv.ReadStamps(opGetItem, params("x"))
	if Stale(stamps) {
		t.Fatal("fresh stamps stale")
	}
	inv.ApplyRemote(ksItemX)
	if !Stale(stamps) {
		t.Fatal("stamps survive a remote bump of their keyspace")
	}
}

// TestInvalidateAllStalesEveryCell verifies the daemon-restart hammer.
func TestInvalidateAllStalesEveryCell(t *testing.T) {
	inv := New(itemGraph(), obs.NewRegistry())
	a := inv.ReadStamps(opGetItem, params("x"))
	b := inv.ReadStamps(opListItems, nil)
	inv.InvalidateAll()
	if !Stale(a) || !Stale(b) {
		t.Fatal("InvalidateAll left a stamp fresh")
	}
	// New stamps taken afterwards are stable again.
	if Stale(inv.ReadStamps(opGetItem, params("x"))) {
		t.Fatal("post-InvalidateAll stamps born stale")
	}
}

// TestVersionCountsEveryMutation pins the sync cursor: any epoch
// mutation advances Version, and a quiet Invalidator holds it steady.
func TestVersionCountsEveryMutation(t *testing.T) {
	inv := New(itemGraph(), obs.NewRegistry())
	if inv.Version() != 0 {
		t.Fatalf("fresh Version = %d", inv.Version())
	}
	inv.CommitWrite(opPutItem, params("x")) // bumps item:x and items
	if inv.Version() != 2 {
		t.Fatalf("after CommitWrite Version = %d, want 2", inv.Version())
	}
	inv.ApplyRemote(ksItems)
	if inv.Version() != 3 {
		t.Fatalf("after ApplyRemote Version = %d, want 3", inv.Version())
	}
	if inv.Version() != 3 {
		t.Fatal("Version moved without a mutation")
	}
}

// TestStampWithAdoptsObservedEpoch verifies the daemon-side Put path:
// a stamp carrying the client's observed epoch is live against the
// daemon's cell — fresh while they agree, stale the moment the cell
// advances past the observation (including "already past" at stamping
// time, the born-stale refusal case).
func TestStampWithAdoptsObservedEpoch(t *testing.T) {
	inv := New(NewGraph(), obs.NewRegistry())
	s := Stamps{}.With(inv.StampWith(ksItems, 0))
	if Stale(s) {
		t.Fatal("matching observation reports stale")
	}
	inv.Bump(ksItems)
	if !Stale(s) {
		t.Fatal("advanced cell not stale against old observation")
	}
	// A client observation behind the daemon's current epoch is born
	// stale: the daemon must refuse the fill.
	if !Stale(Stamps{}.With(inv.StampWith(ksItems, 0))) {
		t.Fatal("born-stale stamp reports fresh")
	}
	if Stale(Stamps{}.With(inv.StampWith(ksItems, inv.Epoch(ksItems)))) {
		t.Fatal("current observation reports stale")
	}
}

// TestReadSetExposesGraphResolution pins the accessor tier fills use
// to name an entry's dependencies on the wire.
func TestReadSetExposesGraphResolution(t *testing.T) {
	inv := New(itemGraph(), obs.NewRegistry())
	ks := inv.ReadSet(opGetItem, params("x"))
	if len(ks) != 1 || ks[0] != string(ksItemX) {
		t.Fatalf("ReadSet(doGetItem) = %v", ks)
	}
	if inv.ReadSet("doUndeclared", nil) != nil {
		t.Fatal("undeclared op has a read set")
	}
}
