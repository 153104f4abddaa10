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
	itemOf := func(params []soap.Param) []Keyspace {
		for _, p := range params {
			if p.Name == "key" {
				return []Keyspace{Keyspace(itemPrefix + p.Value.(string)), ksItems}
			}
		}
		return []Keyspace{ksItems}
	}
	readOf := func(params []soap.Param) []Keyspace {
		for _, p := range params {
			if p.Name == "key" {
				return []Keyspace{Keyspace(itemPrefix + p.Value.(string))}
			}
		}
		return nil
	}
	g := NewGraph()
	g.Read(opGetItem, readOf)
	g.Read(opListItems, Fixed(ksItems))
	g.Write(opPutItem, itemOf)
	return g
}

func params(key string) []soap.Param {
	return []soap.Param{{Name: "key", Value: key}}
}

func TestStampsInvalidatedByDeclaredWrite(t *testing.T) {
	inv := New(itemGraph(), nil)

	a := inv.ReadStamps(opGetItem, params("a"))
	b := inv.ReadStamps(opGetItem, params("b"))
	list := inv.ReadStamps(opListItems, nil)
	if len(a) != 1 || len(b) != 1 || len(list) != 1 {
		t.Fatalf("stamp lengths = %d,%d,%d, want 1,1,1", len(a), len(b), len(list))
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
	if s := inv.ReadStamps("doGoogleSearch", nil); s != nil {
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
	if Stale(nil) {
		t.Error("nil stamps report stale")
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
	stamps := make([][]Stamp, goroutines)
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
			if !Stale([]Stamp{s}) {
				t.Fatalf("goroutine %d's stamp on ks%d missed the bump: bound to a cell not in the table", g, k)
			}
		}
	}
}

// TestGraphBoundsLongKeyspaceNames: a name over maxKeyspaceName leaves
// the graph as its prefix plus a digest of the whole name, the same in
// every call and every process, distinct for names that differ only
// past the prefix; short names, and the SetFunc's own slice, are left
// as they are.
func TestGraphBoundsLongKeyspaceNames(t *testing.T) {
	long := Keyspace(itemPrefix + strings.Repeat("x", 1000))
	longer := Keyspace(itemPrefix + strings.Repeat("x", 1001))
	shared := []Keyspace{ksItems, long}
	g := NewGraph().
		Read(opGetItem, func(p []soap.Param) []Keyspace {
			if p[0].Value == "longer" {
				return []Keyspace{longer}
			}
			return shared
		})
	a := g.readSet(opGetItem, []soap.Param{{Value: "long"}})
	b := g.readSet(opGetItem, []soap.Param{{Value: "long"}})
	c := g.readSet(opGetItem, []soap.Param{{Value: "longer"}})
	if a[0] != ksItems || len(a[1]) != maxKeyspaceName || a[1] != b[1] {
		t.Fatalf("bounded set %q / %q", a, b)
	}
	if !strings.HasPrefix(string(a[1]), string(long[:maxKeyspaceName-33])+"#") {
		t.Errorf("bounded name %q does not keep the prefix", a[1])
	}
	if c[0] == a[1] || len(c[0]) != maxKeyspaceName {
		t.Errorf("names differing past the prefix bound to %q and %q", a[1], c[0])
	}
	if shared[1] != long {
		t.Error("bounding rewrote the SetFunc's own slice")
	}
	// The digest is FNV-1a 128 of the whole name, a fixed function: the
	// bounded form of a given name is a constant across processes.
	if got, want := string(boundName(Keyspace(strings.Repeat("k", 300)))), "#686b9a0ee396879021966744d53ec509"; !strings.HasSuffix(got, want) {
		t.Errorf("bounded form %q, want the suffix %q", got, want)
	}
	short := []Keyspace{ksItems}
	g.Read(opListItems, func([]soap.Param) []Keyspace { return short })
	if got := g.readSet(opListItems, nil); &got[0] != &short[0] {
		t.Error("a set with no long name was copied")
	}
}
