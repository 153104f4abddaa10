package googleapi

import (
	"context"
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
