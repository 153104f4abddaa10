package googleapi

import (
	"context"
	"slices"
	"testing"

	"repro/internal/client"
	"repro/internal/invalidate"
	"repro/internal/soap"
	"repro/internal/transport"
)

func TestItemOperationsEndToEnd(t *testing.T) {
	d, codec, err := NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	store := NewItemStore()
	store.Register(d) // replace the private default store with an inspectable one
	tr := &transport.InProcess{Handler: d}

	invoke := func(op string, params []soap.Param) string {
		t.Helper()
		call := client.NewCall(codec, tr, Endpoint, Namespace, op, "urn:GoogleSearchAction", client.Options{})
		res, err := call.Invoke(context.Background(), params...)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		s, ok := res.(string)
		if !ok {
			t.Fatalf("%s result = %T, want string", op, res)
		}
		return s
	}

	if got := invoke(OpGetItem, GetItemParams("a")); got != "" {
		t.Errorf("get of absent item = %q, want empty", got)
	}
	if got := invoke(OpPutItem, PutItemParams("a", "v1")); got != "stored:a" {
		t.Errorf("put = %q, want stored:a", got)
	}
	invoke(OpPutItem, PutItemParams("b", "v2"))
	if got := invoke(OpGetItem, GetItemParams("a")); got != "v1" {
		t.Errorf("get = %q, want v1", got)
	}
	if got := invoke(opListItems, nil); got != "a,b" {
		t.Errorf("list = %q, want a,b", got)
	}
	if got := store.get("b"); got != "v2" {
		t.Errorf("store.Get(b) = %q, want v2", got)
	}
}

func TestItemGraphDeclarations(t *testing.T) {
	g := ItemGraph()
	inv := invalidate.New(g, nil)

	if !inv.WritesDeclared(OpPutItem) {
		t.Error("doPutItem has no declared write set")
	}
	if inv.WritesDeclared(OpGetItem) || inv.WritesDeclared(opListItems) {
		t.Error("read operations declare write sets")
	}

	// A put to item a must invalidate doGetItem(a) and doListItems, but
	// leave doGetItem(b) standing.
	getA := inv.ReadStamps(OpGetItem, GetItemParams("a"))
	getB := inv.ReadStamps(OpGetItem, GetItemParams("b"))
	list := inv.ReadStamps(opListItems, nil)
	if getA == (invalidate.Stamps{}) || list == (invalidate.Stamps{}) {
		t.Fatal("read operations produced no stamps")
	}
	inv.CommitWrite(OpPutItem, PutItemParams("a", "v9"))
	if !invalidate.Stale(getA) {
		t.Error("doGetItem(a) stamps survived a put to a")
	}
	if !invalidate.Stale(list) {
		t.Error("doListItems stamps survived a put")
	}
	if invalidate.Stale(getB) {
		t.Error("doGetItem(b) stamps invalidated by a put to a")
	}
}

// TestItemGraphCoversEveryDependency is ItemGraph's oracle, after
// Pfeifer & Lockemann's consistency criterion for method caches: a
// cached read stays valid only until a write changes its response, so
// every write that changes a read's response must bump a keyspace in
// that read's read set. Over a three-key universe and every subset of
// keys stored beforehand, it runs a read, then an invocation, then the
// read again through the dispatcher. When the response changed, the
// keyspaces CommitWrite bumps for the invocation, as OnBump sees them,
// must meet the read's ReadSet. Every operation ItemGraph declares must
// be one the oracle drives, so one the dispatcher serves, and none may
// declare both a read and a write set.
func TestItemGraphCoversEveryDependency(t *testing.T) {
	d, codec, err := NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	tr := &transport.InProcess{Handler: d}
	type invocation struct {
		op     string
		params []soap.Param
	}
	keys := []string{"a", "b", "c"}
	calls := []invocation{{opListItems, nil}}
	for _, k := range keys {
		calls = append(calls, invocation{OpGetItem, GetItemParams(k)}, invocation{OpPutItem, PutItemParams(k, "new")})
	}
	invoke := func(c invocation) string {
		t.Helper()
		res, err := client.NewCall(codec, tr, Endpoint, Namespace, c.op, "urn:GoogleSearchAction", client.Options{}).
			Invoke(context.Background(), c.params...)
		if err != nil {
			t.Fatalf("%s%v: %v", c.op, c.params, err)
		}
		return res.(string)
	}

	graph := ItemGraph()
	inv := invalidate.New(graph, nil)
	var bumped []invalidate.Keyspace
	inv.OnBump(func(ks []invalidate.Keyspace) { bumped = append(bumped, ks...) })

	for _, op := range graph.Operations() {
		i := slices.IndexFunc(calls, func(c invocation) bool { return c.op == op })
		if i < 0 {
			t.Errorf("ItemGraph declares %q, which is not an item operation the dispatcher serves", op)
		} else if len(inv.ReadSet(op, calls[i].params)) > 0 && inv.WritesDeclared(op) {
			t.Errorf("%s declares both a read and a write set; its own writes would invalidate its fills", op)
		}
	}

	reported := make(map[[2]string]bool)
	for stored := 0; stored < 1<<len(keys); stored++ {
		for _, w := range calls {
			for _, r := range calls {
				store := NewItemStore()
				for i, k := range keys {
					if stored&(1<<i) != 0 {
						store.Put(k, "old")
					}
				}
				store.Register(d)
				before := invoke(r)
				invoke(w)
				after := invoke(r)
				if before == after {
					continue
				}
				bumped = bumped[:0]
				inv.CommitWrite(w.op, w.params)
				reads := inv.ReadSet(r.op, r.params)
				covered := slices.ContainsFunc(bumped, func(ks invalidate.Keyspace) bool {
					return slices.Contains(reads, string(ks))
				})
				if pair := [2]string{w.op, r.op}; !covered && !reported[pair] {
					reported[pair] = true
					t.Errorf("%s%v changes %s%v from %q to %q, but bumps %v, outside its read set %v",
						w.op, w.params, r.op, r.params, before, after, bumped, reads)
				}
			}
		}
	}
}
