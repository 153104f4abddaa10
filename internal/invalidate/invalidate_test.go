package invalidate

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/soap"
)

// Operation and keyspace names for the item-store shape the tests
// model. Values follow the WSDL do* convention; the keyspace prefix is
// declared once, per the epochgraph analyzer's rules.
const (
	opGetItem   = "doGetItem"
	opListItems = "doListItems"
	opPutItem   = "doPutItem"

	itemPrefix = "item:"
)

const (
	ksItems     = Keyspace("items")
	ksItemX     = Keyspace(itemPrefix + "x")
	ksItemNever = Keyspace(itemPrefix + "never")
)

// itemGraph declares the canonical shape: opGetItem reads one item and
// opPutItem writes that item plus the coarse all-items family that
// opListItems reads.
func itemGraph() *Graph {
	return NewGraph().
		Read(opGetItem, Param(itemPrefix, "key", 0)).
		Read(opListItems, Fixed(ksItems)).
		Write(opPutItem, Param(itemPrefix, "key", 0), Fixed(ksItems))
}

func params(key string) []soap.Param {
	return []soap.Param{{Name: "key", Value: key}}
}

func TestStampsInvalidatedByDeclaredWrite(t *testing.T) {
	inv := New(itemGraph(), nil)

	a := inv.ReadStamps(opGetItem, params("a"))
	b := inv.ReadStamps(opGetItem, params("b"))
	list := inv.ReadStamps(opListItems, nil)
	if stampCount(a) != 1 || stampCount(b) != 1 || stampCount(list) != 1 {
		t.Fatalf("stamp lengths = %d,%d,%d, want 1,1,1", stampCount(a), stampCount(b), stampCount(list))
	}
	if Stale(a) || Stale(b) || Stale(list) {
		t.Fatal("fresh stamps report stale")
	}

	if n := inv.CommitWrite(opPutItem, params("a")); n != 2 {
		t.Fatalf("CommitWrite bumped %d keyspaces, want 2 (item:a + items)", n)
	}
	if !Stale(a) {
		t.Error("item:a stamp survived a write to a")
	}
	if Stale(b) {
		t.Error("item:b stamp invalidated by a write to a")
	}
	if !Stale(list) {
		t.Error("coarse items stamp survived a write to a")
	}

	// Re-stamping after the write is fresh again.
	if a2 := inv.ReadStamps(opGetItem, params("a")); Stale(a2) {
		t.Error("post-write re-stamp reports stale")
	}
}

func TestUndeclaredOperationsHaveNoStamps(t *testing.T) {
	inv := New(itemGraph(), nil)
	if s := inv.ReadStamps("doGoogleSearch", nil); s != (Stamps{}) {
		t.Fatalf("undeclared op produced stamps: %v", s)
	}
	if n := inv.CommitWrite("doGoogleSearch", nil); n != 0 {
		t.Fatalf("undeclared op bumped %d keyspaces", n)
	}
	if inv.WritesDeclared("doGoogleSearch") {
		t.Error("WritesDeclared true for undeclared op")
	}
	if !inv.WritesDeclared(opPutItem) {
		t.Error("WritesDeclared false for declared op")
	}
	if Stale(Stamps{}) {
		t.Error("empty stamps report stale")
	}
}

func TestBumpAndEpochGauges(t *testing.T) {
	reg := obs.NewRegistry()
	inv := New(itemGraph(), reg)

	inv.Bump(ksItems)
	inv.CommitWrite(opPutItem, params("x"))
	if got := inv.Epoch(ksItems); got != 2 {
		t.Errorf("Epoch(items) = %d, want 2", got)
	}
	if got := inv.Epoch(ksItemX); got != 1 {
		t.Errorf("Epoch(item:x) = %d, want 1", got)
	}
	if got := inv.Epoch(ksItemNever); got != 0 {
		t.Errorf("Epoch(item:never) = %d, want 0", got)
	}

	snap := reg.Snapshot()
	if snap.Counters["invalidate.bumps"] != 3 {
		t.Errorf("invalidate.bumps = %d, want 3", snap.Counters["invalidate.bumps"])
	}
	if snap.Counters["invalidate.writes"] != 1 {
		t.Errorf("invalidate.writes = %d, want 1", snap.Counters["invalidate.writes"])
	}
	table, ok := snap.Inspections["invalidation"].(map[string]uint64)
	if !ok {
		t.Fatalf("invalidation inspection missing or wrong type: %T", snap.Inspections["invalidation"])
	}
	if table["items"] != 2 || table["item:x"] != 1 {
		t.Errorf("inspection table = %v, want items=2 item:x=1", table)
	}
	if ks := inv.Keyspaces(); len(ks) != 2 || ks[0] != ksItemX || ks[1] != ksItems {
		t.Errorf("Keyspaces() = %v", ks)
	}
}

// TestConcurrentStampsAndWrites hammers ReadStamps/Stale against
// CommitWrite under the race detector and checks the one-sided
// guarantee: a stamp taken entirely after a committed write must never
// be stale unless a later write landed.
func TestConcurrentStampsAndWrites(t *testing.T) {
	inv := New(itemGraph(), nil)
	const writers, writesEach = 4, 500
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < writesEach; i++ {
				inv.CommitWrite(opPutItem, params(fmt.Sprintf("k%d", w%2)))
			}
		}(w)
	}
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := inv.ReadStamps(opGetItem, params("k0"))
			// Staleness may flip from false to true under concurrent
			// writes; calling it concurrently is the point.
			Stale(s)
			Stale(inv.ReadStamps(opListItems, nil))
		}
	}()

	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	if got := inv.Epoch(ksItems); got != writers*writesEach {
		t.Errorf("Epoch(items) = %d, want %d", got, writers*writesEach)
	}
	// Quiesced: a fresh stamp must be stable.
	if Stale(inv.ReadStamps(opListItems, nil)) {
		t.Error("stamp taken after all writes completed reports stale")
	}
}

// TestConcurrentFirstTouchSharesOneCell: goroutines racing to create
// the same keyspaces' cells, while another walks the table, must all
// end up stamped against one cell per keyspace — a stamp bound to a
// cell that lost the race would never see the bump below.
func TestConcurrentFirstTouchSharesOneCell(t *testing.T) {
	inv := New(nil, nil)
	const goroutines, keyspaces = 8, 64
	stamps := make([][]stamp, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < keyspaces; k++ {
				stamps[g] = append(stamps[g], inv.StampWith(Keyspace(fmt.Sprintf("ks%d", k)), 0))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			inv.Range(func(Keyspace, uint64) {})
		}
	}()
	wg.Wait()

	if n := len(inv.Keyspaces()); n != keyspaces {
		t.Fatalf("%d cells, want %d", n, keyspaces)
	}
	for k := 0; k < keyspaces; k++ {
		inv.Bump(Keyspace(fmt.Sprintf("ks%d", k)))
	}
	for g := range stamps {
		for k, s := range stamps[g] {
			if !Stale(Stamps{}.With(s)) {
				t.Fatalf("goroutine %d's stamp on ks%d missed the bump: bound to a cell not in the table", g, k)
			}
		}
	}
}

// TestGraphBoundsLongKeyspaceNames: a name over maxKeyspaceName leaves
// the graph as its prefix plus a digest of the whole name, the same in
// every call and every process, distinct for names that differ only
// past the prefix, and the same for stamps, bumps and tier read sets;
// short names are left as they are.
func TestGraphBoundsLongKeyspaceNames(t *testing.T) {
	long := strings.Repeat("x", 1000)
	inv := New(NewGraph().
		Read(opGetItem, Fixed(ksItems), Param(itemPrefix, "key", 0)).
		Write(opPutItem, Param(itemPrefix, "key", 0)), nil)
	a := inv.ReadSet(opGetItem, params(long))
	b := inv.ReadSet(opGetItem, params(long))
	c := inv.ReadSet(opGetItem, params(long+"x"))
	if a[0] != string(ksItems) || len(a[1]) != maxKeyspaceName || a[1] != b[1] {
		t.Fatalf("bounded set %q / %q", a, b)
	}
	if !strings.HasPrefix(a[1], (itemPrefix + long)[:maxKeyspaceName-33]+"#") {
		t.Errorf("bounded name %q does not keep the prefix", a[1])
	}
	if c[1] == a[1] || len(c[1]) != maxKeyspaceName {
		t.Errorf("names differing past the prefix bound to %q and %q", a[1], c[1])
	}
	st := inv.ReadStamps(opGetItem, params(long))
	inv.CommitWrite(opPutItem, params(long))
	if !Stale(st) || inv.Epoch(Keyspace(a[1])) != 1 {
		t.Errorf("a write to the long key did not reach the stamp under %q", a[1])
	}
	// The digest is FNV-1a 128 of the whole name, a fixed function: the
	// bounded form of a given name is a constant across processes.
	if got, want := string(boundName(Keyspace(strings.Repeat("k", 300)))), "#686b9a0ee396879021966744d53ec509"; !strings.HasSuffix(got, want) {
		t.Errorf("bounded form %q, want the suffix %q", got, want)
	}
}

// TestReadStampsAllocs: snapshotting a one-keyspace read set whose cell
// exists allocates nothing — the name is built on the stack and the
// stamp sits inline in Stamps — and each further keyspace costs one
// node.
func TestReadStampsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	inv := New(NewGraph().
		Read(opGetItem, Param(itemPrefix, "key", 0)).
		Read(opListItems, Param(itemPrefix, "key", 0), Fixed(ksItems)), nil)
	p := params("x")
	inv.ReadStamps(opListItems, p) // first touch creates both cells
	for _, tc := range []struct {
		op   string
		want float64
	}{
		{opGetItem, 0},
		{opListItems, 1},
	} {
		var st Stamps
		if got := testing.AllocsPerRun(100, func() { st = inv.ReadStamps(tc.op, p) }); got != tc.want {
			t.Errorf("%s: %v allocs per snapshot, want %v", tc.op, got, tc.want)
		}
		if st == (Stamps{}) || Stale(st) {
			t.Errorf("%s: snapshot of %d stamps, stale %v", tc.op, stampCount(st), Stale(st))
		}
	}
}

// stampCount is the number of stamps in s.
func stampCount(s Stamps) int {
	n := 0
	for r := &s; r != nil && r.first.cell != nil; r = r.rest {
		n++
	}
	return n
}
