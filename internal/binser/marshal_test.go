package binser_test

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/binser"
	"repro/internal/googleapi"
	"repro/internal/typemap"
)

func searchCodec(tb testing.TB) *binser.Codec {
	tb.Helper()
	reg := typemap.NewRegistry()
	if err := googleapi.RegisterTypes(reg); err != nil {
		tb.Fatal(err)
	}
	return binser.NewCodec(reg)
}

// TestMarshalMatchesGolden: the search fixture encodes to the bytes in
// testdata/search.golden, which an encoder that sized its buffer by
// doubling and built each struct's wire name per value wrote. Tier
// values written by one build must decode in every other.
func TestMarshalMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/search.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, err := searchCodec(t).Marshal(googleapi.Search("fixed query", 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("search fixture encodes to %d bytes that differ from the %d-byte golden", len(got), len(want))
	}
}

// TestMarshalAllocs: a value is written into a pooled scratch buffer
// and returned as one exact-size copy, with every struct's wire name
// taken from a string computed once.
func TestMarshalAllocs(t *testing.T) {
	c := searchCodec(t)
	v := googleapi.Search("fixed query", 0, 10)
	b, err := c.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != cap(b) {
		t.Errorf("Marshal returned len %d, cap %d", len(b), cap(b))
	}
	if raceEnabled {
		t.Skip("the race detector empties the scratch pool at random")
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.Marshal(v); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Marshal of the search fixture allocates %v times, want <= 1", n)
	}
}
