package rep_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/client"
	"repro/internal/googleapi"
	"repro/internal/rep"
)

// TestEventStoreLoadAllocs bounds one Load of the search response from
// each event-replay store: the decoded result graph, the decoder's
// stacks and the character-data strings, and nothing for the replay
// plumbing between the held stream and the deserializer.
func TestEventStoreLoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	_, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	want := googleapi.Search("alloc query", 0, 10)
	doc, err := codec.EncodeResponse(googleapi.Namespace, googleapi.OpGoogleSearch, want)
	if err != nil {
		t.Fatal(err)
	}
	reg := rep.NewRegistry(codec.Registry(), codec)
	for _, c := range []struct {
		name   string
		allocs float64
	}{
		{"sax", 64},
		{"compact-sax", 68},
		{"dom", 64},
	} {
		st, err := reg.Store(c.name)
		if err != nil {
			t.Fatal(err)
		}
		payload, _, err := st.Store(&client.Context{Ctx: context.Background(), ResponseXML: doc, Result: want})
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Load(payload)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Load = %+v, %v", c.name, got, err)
		}
		if n := testing.AllocsPerRun(50, func() { _, _ = st.Load(payload) }); n > c.allocs {
			t.Errorf("%s: one Load allocates %v, want <= %v", c.name, n, c.allocs)
		}
	}
}
