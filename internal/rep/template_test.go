package rep_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/googleapi"
	"repro/internal/rep"
	"repro/internal/soap"
)

// thirdParty holds envelopes this repository's encoder does not write:
// the template store must replay each byte for byte, not in any
// canonical form.
var thirdParty = []struct{ name, doc string }{
	{"single-quoted attributes", `<e:Envelope xmlns:e='urn:e'><e:Body><r a='x' b="y">v</r></e:Body></e:Envelope>`},
	{"entity and character references", `<e><t>it&apos;s &#65; &#x42; &amp; &lt;</t><u>&quot;q&quot;</u></e>`},
	{"empty-element tag", `<e><b/><c>x</c><d></d></e>`},
	{"carriage returns", "<e><t>line\r\nnext\rend</t></e>"},
	{"leading XML declaration", "<?xml version='1.0' encoding='UTF-8'?>\n<e>\n  <t>x</t>\n</e>\n"},
	{"mixed content", `<e>head <b>bold</b> tail&gt;</e>`},
}

// notSplit holds envelopes the template store must refuse rather than
// answer with a rewritten document.
var notSplit = []struct{ name, doc string }{
	{"comment", `<e><!-- note --><t>x</t></e>`},
	{"CDATA section", `<e><t><![CDATA[<x>]]></t></e>`},
	{"processing instruction", `<e><?pi body?><t>x</t></e>`},
	{"CDATA terminator in text", `<e><t>a ]]> b</t></e>`},
	{"unknown entity", `<e><t>&bogus;</t></e>`},
	{"illegal character", "<e><t>\x01</t></e>"},
	{"no element", `just text`},
}

func TestTemplateStoreReplaysOriginBytes(t *testing.T) {
	st := rep.NewTemplateStore()
	for _, c := range thirdParty {
		t.Run(c.name, func(t *testing.T) {
			// The first store learns the shape; the second matches it.
			for range 2 {
				checkReplay(t, st, []byte(c.doc))
			}
		})
	}
	// Two stores and their two wire decodes per envelope: only the
	// first store learns.
	if s := st.Stats(); s.Learns != int64(len(thirdParty)) || s.Matches != 3*int64(len(thirdParty)) {
		t.Errorf("stats = %+v, want one learn and three matches per envelope", s)
	}
	for _, c := range notSplit {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := st.Store(streamCtx([]byte(c.doc))); !errors.Is(err, rep.ErrNotApplicable) {
				t.Errorf("Store: err = %v, want ErrNotApplicable", err)
			}
			if _, err := st.DecodeWire([]byte(c.doc)); !errors.Is(err, rep.ErrNotApplicable) {
				t.Errorf("DecodeWire: err = %v, want ErrNotApplicable", err)
			}
		})
	}
}

// TestTemplateStoreInternerIsBounded: a stream of distinct response
// shapes fills the interned set to its bound and no further, and every
// shape past the bound still caches and replays its own bytes.
func TestTemplateStoreInternerIsBounded(t *testing.T) {
	st := rep.NewTemplateStore()
	for i := range 3000 {
		checkReplay(t, st, fmt.Appendf(nil, `<r n="%d"><v>text %d</v></r>`, i, i))
		if s := st.Stats(); s.Skeletons > rep.TemplateShapes {
			t.Fatalf("after %d shapes the store interns %d skeletons, bound %d", i+1, s.Skeletons, rep.TemplateShapes)
		}
	}
	// checkReplay stores each shape and decodes it from the wire: the
	// decode matches while the shape is interned and learns otherwise.
	if s := st.Stats(); s.Skeletons != rep.TemplateShapes || s.Matches != rep.TemplateShapes || s.Learns != 6000-rep.TemplateShapes {
		t.Errorf("stats = %+v, want %d skeletons and matches", s, rep.TemplateShapes)
	}
	// An entry whose skeleton is private is charged for it; one whose
	// skeleton is interned is not.
	sizes := [2]int{}
	for i, n := range []int{rep.TemplateShapes - 1, rep.TemplateShapes} {
		_, size, err := st.Store(streamCtx(fmt.Appendf(nil, `<r n="%d"><v>x</v></r>`, n)))
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = size
	}
	if skeleton := len(`<r n="64"><v></v></r>`); sizes[1]-sizes[0] != skeleton {
		t.Errorf("resident sizes %v: a private skeleton must add its %d bytes", sizes, skeleton)
	}
}

// TestTemplateStoreKeysFollowSkeletons: two documents share a shape key
// exactly when they share a skeleton, so alternating fills of two of
// them each match an interned skeleton. Text before or after the root
// element is fixed, not a hole; a '>' in a quoted attribute value does
// not end a tag; an empty element is a hole as a filled one is. Keying
// costs no allocation.
func TestTemplateStoreKeysFollowSkeletons(t *testing.T) {
	for _, c := range []struct {
		pair                    [2]string
		learns, matches, shapes int
	}{
		{[2]string{`<a><b>x</b></a>`, "<a><b>x</b></a>\n"}, 2, 8, 2},
		{[2]string{`<a x="1>2">t</a>`, `<a x="1>3">t</a>`}, 2, 8, 2},
		{[2]string{`<a><b></b></a>`, `<a><b>x</b></a>`}, 1, 9, 1},
	} {
		pair := c.pair
		st := rep.NewTemplateStore()
		for range 5 {
			for _, doc := range pair {
				payload, _, err := st.Store(streamCtx([]byte(doc)))
				if err != nil {
					t.Fatal(err)
				}
				if got := payload.(rep.Streamed).Bytes(); string(got) != doc {
					t.Fatalf("replay %q of %q", got, doc)
				}
			}
		}
		if s := st.Stats(); s.Learns != int64(c.learns) || s.Matches != int64(c.matches) || s.Skeletons != c.shapes {
			t.Errorf("%q: stats = %+v, want %d learns, %d matches, %d skeletons", pair, s, c.learns, c.matches, c.shapes)
		}
		doc := []byte(pair[1])
		if n := testing.AllocsPerRun(10, func() { soap.ShapeKey(doc) }); n != 0 {
			t.Errorf("ShapeKey allocates %v", n)
		}
	}
}

// TestTemplateStoreConcurrentFills: fills of a few shapes from several
// goroutines at once each replay their own bytes and intern each shape
// once.
func TestTemplateStoreConcurrentFills(t *testing.T) {
	st := rep.NewTemplateStore()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				doc := fmt.Appendf(nil, `<r n="%d"><v>goroutine %d fill %d</v></r>`, i%3, g, i)
				payload, _, err := st.Store(streamCtx(doc))
				if err != nil {
					t.Error(err)
					return
				}
				if got := payload.(rep.Streamed).Bytes(); !bytes.Equal(got, doc) {
					t.Errorf("replay %q of %q", got, doc)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s := st.Stats(); s.Skeletons != 3 || s.Learns+s.Matches != 800 {
		t.Errorf("stats = %+v, want 3 skeletons over 800 fills", s)
	}
}

// TestTemplateStoreHitDoesNotAllocate: a hit replays from the shared
// skeleton and the entry's holes through a pooled buffer.
func TestTemplateStoreHitDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties the replay buffer pool at random")
	}
	st := rep.NewTemplateStore()
	payload, _, err := st.Store(streamCtx(searchEnvelope(t, "hit")))
	if err != nil {
		t.Fatal(err)
	}
	hit, err := st.Load(payload)
	if err != nil {
		t.Fatal(err)
	}
	stream := hit.(rep.Streamed)
	if allocs := testing.AllocsPerRun(100, func() { _, _ = stream.WriteTo(io.Discard) }); allocs != 0 {
		t.Errorf("a hit's WriteTo allocates %v times, want 0", allocs)
	}
}

// FuzzTemplateStore is the byte-identity differential of the template
// store: on a store that has learnt the search envelope, Store and
// DecodeWire either refuse arbitrary bytes with an error that names the
// layer or is ErrNotApplicable, or return a payload that replays them
// exactly; the interned set never passes its bound. Run longer with:
//
//	go test -run NONE -fuzz '^FuzzTemplateStore$' ./internal/rep
func FuzzTemplateStore(f *testing.F) {
	learnt := searchEnvelope(f, "learnt")
	st := rep.NewTemplateStore()
	if _, _, err := st.Store(streamCtx(learnt)); err != nil {
		f.Fatal(err)
	}
	f.Add(learnt)
	// Text mutations of the learnt envelope: each replaces the text of
	// its first result's title.
	for _, text := range []string{"", "new title", "&amp; &#65; &apos;", "a\r\nb", "]]>", "&bogus;", "\x00\x01\x02", "<", "é日\U0001F600"} {
		f.Add(bytes.Replace(learnt, []byte("<title xsi:type=\"xsd:string\">"), fmt.Appendf(nil, "<title xsi:type=\"xsd:string\">%s", text), 1))
	}
	for _, c := range append(thirdParty, notSplit...) {
		f.Add([]byte(c.doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		if payload, _, err := st.Store(streamCtx(doc)); err != nil {
			checkRefusal(t, "Store", err)
		} else {
			checkPayload(t, st, payload, doc)
		}
		if payload, err := st.DecodeWire(append([]byte(nil), doc...)); err != nil {
			checkRefusal(t, "DecodeWire", err)
		} else {
			checkPayload(t, st, payload, doc)
		}
		if s := st.Stats(); s.Skeletons > rep.TemplateShapes {
			t.Fatalf("the store interns %d skeletons, bound %d", s.Skeletons, rep.TemplateShapes)
		}
	})
}

// BenchmarkTemplateStore prices a fill and a shared-tier decode of the
// search envelope on a learnt shape, and a hit's replay.
func BenchmarkTemplateStore(b *testing.B) {
	st := rep.NewTemplateStore()
	doc := searchEnvelope(b, "bench")
	ictx := streamCtx(doc)
	payload, _, err := st.Store(ictx)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Store", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, _, err := st.Store(ictx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DecodeWire", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := st.DecodeWire(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WriteTo", func(b *testing.B) {
		stream := payload.(rep.Streamed)
		b.ReportAllocs()
		for b.Loop() {
			if _, err := stream.WriteTo(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// searchEnvelope returns the origin's doGoogleSearch response for q.
func searchEnvelope(tb testing.TB, q string) []byte {
	tb.Helper()
	_, codec, err := googleapi.NewDispatcher()
	if err != nil {
		tb.Fatal(err)
	}
	doc, err := codec.EncodeResponse(googleapi.Namespace, googleapi.OpGoogleSearch, googleapi.Search(q, 0, 10))
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

// streamCtx is the context a stream-accepting invocation of doc leaves.
func streamCtx(doc []byte) *client.Context {
	return &client.Context{Ctx: context.Background(), ResponseXML: doc, AcceptStream: true}
}

// checkReplay stores doc and fails unless the payload replays it.
func checkReplay(t *testing.T, st *rep.TemplateStore, doc []byte) {
	t.Helper()
	payload, _, err := st.Store(streamCtx(doc))
	if err != nil {
		t.Fatalf("Store: %v", err)
	}
	checkPayload(t, st, payload, doc)
}

// checkPayload fails unless payload's Bytes, WriteTo and EncodeWire,
// and the payload DecodeWire makes of that, all equal doc.
func checkPayload(t *testing.T, st *rep.TemplateStore, payload any, doc []byte) {
	t.Helper()
	hit, err := st.Load(payload)
	if err != nil {
		t.Fatal(err)
	}
	stream := hit.(rep.Streamed)
	var buf bytes.Buffer
	if n, err := stream.WriteTo(&buf); err != nil || n != int64(len(doc)) || stream.Len() != len(doc) {
		t.Fatalf("WriteTo: n=%d err=%v Len=%d, want %d bytes", n, err, stream.Len(), len(doc))
	}
	wire, err := st.EncodeWire(payload)
	if err != nil {
		t.Fatal(err)
	}
	back, err := st.DecodeWire(wire)
	if err != nil {
		t.Fatalf("DecodeWire of the encoded payload: %v", err)
	}
	for what, got := range map[string][]byte{
		"Bytes": stream.Bytes(), "WriteTo": buf.Bytes(), "EncodeWire": wire,
		"DecodeWire": back.(rep.Streamed).Bytes(),
	} {
		if !bytes.Equal(got, doc) {
			t.Fatalf("%s diverges from the origin's bytes\n got: %q\nwant: %q", what, got, doc)
		}
	}
}

// checkRefusal fails unless err is ErrNotApplicable or names the rep
// layer.
func checkRefusal(t *testing.T, stage string, err error) {
	t.Helper()
	if !errors.Is(err, rep.ErrNotApplicable) && !strings.HasPrefix(err.Error(), "rep: ") {
		t.Fatalf("%s: error %q names no layer", stage, err)
	}
}
