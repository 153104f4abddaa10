package sax

import (
	"testing"
	"testing/quick"
)

const compactSample = `<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/">` +
	`<s:Body><r xmlns="urn:x" k="v"><item>one</item><item>two</item>` +
	`<item>one</item><!-- c --><?pi body?></r></s:Body></s:Envelope>`

// recordWithEverything records doc with the parser every caller uses;
// compactSample's comment and processing instruction take its skip
// path.
func recordWithEverything(t *testing.T, doc string) []Event {
	t.Helper()
	events, err := Record([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestCompactRoundTrip(t *testing.T) {
	events := recordWithEverything(t, compactSample)
	c := Compact(events)
	if len(c.ops) != len(events) {
		t.Fatalf("len = %d, want %d", len(c.ops), len(events))
	}
	back := c.Events()
	if len(back) != len(events) {
		t.Fatalf("events = %d, want %d", len(back), len(events))
	}
	for i := range events {
		if events[i].String() != back[i].String() {
			t.Errorf("event %d: %q != %q", i, events[i], back[i])
		}
		if len(events[i].Attrs) != len(back[i].Attrs) {
			t.Errorf("event %d attrs differ", i)
			continue
		}
		for j := range events[i].Attrs {
			if events[i].Attrs[j] != back[i].Attrs[j] {
				t.Errorf("event %d attr %d: %+v != %+v", i, j, events[i].Attrs[j], back[i].Attrs[j])
			}
		}
	}
}

func TestCompactReplayEqualsEventReplay(t *testing.T) {
	events := recordWithEverything(t, compactSample)
	c := Compact(events)

	recA := &recorder{}
	if err := Replay(events, recA); err != nil {
		t.Fatal(err)
	}
	recB := &recorder{}
	if err := c.Replay(recB); err != nil {
		t.Fatal(err)
	}
	a, b := recA.events, recB.events
	if len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Errorf("event %d: %q != %q", i, a[i], b[i])
		}
	}
}

func TestCompactSmallerThanNaive(t *testing.T) {
	// The whole point: repetitive SOAP-ish documents shrink.
	events := recordWithEverything(t, compactSample)
	naive := SequenceMemSize(events)
	compact := Compact(events).MemSize()
	if compact >= naive {
		t.Errorf("compact %d not smaller than naive %d", compact, naive)
	}
	t.Logf("naive %d bytes, compact %d bytes (%.0f%%)", naive, compact, 100*float64(compact)/float64(naive))
}

func TestCompactWriterOutputIdentical(t *testing.T) {
	events := recordWithEverything(t, compactSample)
	w1 := NewWriter()
	if err := Replay(events, w1); err != nil {
		t.Fatal(err)
	}
	w2 := NewWriter()
	if err := Compact(events).Replay(w2); err != nil {
		t.Fatal(err)
	}
	if w1.String() != w2.String() {
		t.Errorf("serializations differ:\n%s\n%s", w1.String(), w2.String())
	}
}

func TestCompactRoundTripProperty(t *testing.T) {
	f := func(seed uint32) bool {
		events := genTree(seed)
		c := Compact(events)
		w1 := NewWriter()
		if err := Replay(events, w1); err != nil {
			return false
		}
		w2 := NewWriter()
		if err := c.Replay(w2); err != nil {
			return false
		}
		return w1.String() == w2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCompactEmpty(t *testing.T) {
	c := Compact(nil)
	if len(c.ops) != 0 || len(c.Events()) != 0 {
		t.Error("empty sequence misbehaves")
	}
	if err := c.Replay(NopHandler{}); err != nil {
		t.Error(err)
	}
}
