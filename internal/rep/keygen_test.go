package rep

import (
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/soap"
)

// TestAppendStringIntegerWidths is the regression test for the uint8
// hole in appendString's integer switch: every fixed-width integer
// must render by value, not fall through to the %T error.
func TestAppendStringIntegerWidths(t *testing.T) {
	cases := []struct {
		v    any
		want string
	}{
		{int(-1), "-1"},
		{int8(-8), "-8"},
		{int16(-16), "-16"},
		{int32(-32), "-32"},
		{int64(-64), "-64"},
		{uint(1), "1"},
		{uint8(8), "8"}, // the missing case: fell to the error before
		{uint16(16), "16"},
		{uint32(32), "32"},
		{uint64(64), "64"},
		{false, "false"},
		{float32(1.5), "1.5"},
		{float64(2.5), "2.5"},
		{"s", "s"},
		{nil, "<nil>"},
		{[]byte("raw"), "raw"},
	}
	for _, tc := range cases {
		got, err := appendString(nil, tc.v)
		if err != nil {
			t.Errorf("appendString(%T %v): %v", tc.v, tc.v, err)
			continue
		}
		if string(got) != tc.want {
			t.Errorf("appendString(%T %v) = %q, want %q", tc.v, tc.v, got, tc.want)
		}
	}
}

// TestStringKeyUint8Param drives the uint8 fix end to end: a uint8
// parameter must produce a usable key, and distinct values distinct
// keys.
func TestStringKeyUint8Param(t *testing.T) {
	k := NewStringKey()
	ctx := func(v uint8) *client.Context {
		return &client.Context{
			Endpoint:  "http://test/endpoint",
			Operation: "get",
			Params:    []soap.Param{{Name: "level", Value: v}},
		}
	}
	k8, err := k.Key(ctx(8))
	if err != nil {
		t.Fatalf("uint8 param rejected: %v", err)
	}
	if !strings.Contains(k8, "level=8") {
		t.Errorf("key %q does not render the uint8 value", k8)
	}
	k9, err := k.Key(ctx(9))
	if err != nil {
		t.Fatal(err)
	}
	if k8 == k9 {
		t.Error("distinct uint8 values collided")
	}
}

// TestAppendKeyMatchesKey pins the KeyAppender fast path to the Key
// string for every generator that implements both: the digest the
// cache hashes from the scratch buffer must be the digest of the key
// string, or append-path lookups and string-path fills would miss each
// other.
func TestAppendKeyMatchesKey(t *testing.T) {
	f := newFixture(t)
	ictx := f.reqCtx("get",
		soap.Param{Name: "q", Value: "cache me"},
		soap.Param{Name: "start", Value: 0},
		soap.Param{Name: "max", Value: 10},
		soap.Param{Name: "filter", Value: true},
	)
	gens := []KeyGenerator{
		NewStringKey(),
		newGobKey(),
		NewXMLMessageKey(f.codec),
		NewBinserKey(f.reg),
	}
	for _, g := range gens {
		ka, ok := g.(KeyAppender)
		if !ok {
			t.Errorf("%s does not implement KeyAppender", g.Name())
			continue
		}
		key, err := g.Key(ictx)
		if err != nil {
			t.Fatalf("%s Key: %v", g.Name(), err)
		}
		appended, err := ka.AppendKey(nil, ictx)
		if err != nil {
			t.Fatalf("%s AppendKey: %v", g.Name(), err)
		}
		if string(appended) != key {
			t.Errorf("%s: AppendKey diverges from Key\n append: %q\n key:    %q", g.Name(), appended, key)
		}
		// Appending onto a prefix must leave the prefix intact.
		withPrefix, err := ka.AppendKey([]byte("prefix|"), ictx)
		if err != nil {
			t.Fatal(err)
		}
		if string(withPrefix) != "prefix|"+key {
			t.Errorf("%s: AppendKey clobbered the prefix", g.Name())
		}
	}
}

// TestGobKeyPooledBufferStable verifies pooled scratch reuse does not
// make keys history-dependent: the same parameters key identically no
// matter what was encoded before (the reason the gob *encoder* is not
// pooled).
func TestGobKeyPooledBufferStable(t *testing.T) {
	k := newGobKey()
	mk := func(q string) *client.Context {
		return &client.Context{
			Endpoint:  "http://test/endpoint",
			Operation: "get",
			Params:    []soap.Param{{Name: "q", Value: q}},
		}
	}
	first, err := k.Key(mk("a"))
	if err != nil {
		t.Fatal(err)
	}
	// Interleave other keys to churn the pool, then re-derive.
	for i := 0; i < 16; i++ {
		if _, err := k.Key(mk(strings.Repeat("x", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	again, err := k.Key(mk("a"))
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Errorf("gob key unstable across pooled encodes:\n %q\n %q", first, again)
	}
}
