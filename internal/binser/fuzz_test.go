package binser_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/binser"
	"repro/internal/googleapi"
	"repro/internal/typemap"
)

// allocPerByte and allocSlack bound what one Unmarshal may allocate:
// allocPerByte bytes per input byte plus allocSlack. A nest of small
// maps costs about 60 bytes per input byte, a map header for every two.
const (
	allocPerByte = 128
	allocSlack   = 64 << 10
)

// FuzzUnmarshal decodes arbitrary bytes, as the reader of a tier value
// another process stored must: it may fail but never panic, and it may
// allocate only in proportion to the input, so no count on the wire
// makes it reserve memory the input cannot fill. The seeds are the
// Table 7 fixtures' encodings and a seven-byte slice header claiming
// 2^40 elements, which once ended the process out of memory, and a
// nest of headers each claiming the bytes left after it. Run
// longer with:
//
//	go test -fuzz '^FuzzUnmarshal$' ./internal/binser
func FuzzUnmarshal(f *testing.F) {
	reg := typemap.NewRegistry()
	if err := googleapi.RegisterTypes(reg); err != nil {
		f.Fatal(err)
	}
	c := binser.NewCodec(reg)
	marshal := func(v any) []byte {
		b, err := c.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	for _, v := range []any{
		googleapi.SpellingSuggestion("web servises cashing"),
		googleapi.CachedPage("http://example.com/fixed"),
		googleapi.Search("fixed query", 0, 10),
	} {
		f.Add(marshal(v))
	}
	// A slice holding a nil where a struct field wants []string.
	f.Add([]byte("\n${urn:GoogleSearch}GoogleSearchResult\v\x03\a\x00\x04\xee\xf5\x810\x03\t\x03\x01\a\x00\x0600000000"))
	for _, empty := range []any{[]any{}, map[string]any{}} {
		tag := marshal(empty)[0]
		f.Add(binary.AppendUvarint([]byte{tag}, 1<<40))
		f.Add(binary.AppendUvarint([]byte{tag}, 1<<28))
		// Nested headers each claiming the bytes left after them.
		f.Add(bytes.Repeat([]byte{tag, 0x7f}, 500))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = c.Unmarshal(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(allocPerByte*len(data)+allocSlack) {
			t.Fatalf("decoding %d bytes allocated %d B", len(data), grew)
		}
	})
}
