package soap_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/googleapi"
	"repro/internal/soap"
)

// memoDocs encodes one response of each shape FuzzMemoDecode primes
// with: search, spelling, cached page and item, for query q.
func memoDocs(tb testing.TB, codec *soap.Codec, q string) [][]byte {
	tb.Helper()
	var docs [][]byte
	for _, r := range []struct {
		op     string
		result any
	}{
		{googleapi.OpGoogleSearch, googleapi.Search(q, 0, 10)},
		{googleapi.OpSpellingSuggestion, googleapi.SpellingSuggestion(q)},
		{googleapi.OpGetCachedPage, googleapi.CachedPage("http://example.com/" + q)},
		{googleapi.OpGetItem, "value of " + q},
	} {
		doc, err := codec.EncodeResponse(googleapi.Namespace, r.op, r.result)
		if err != nil {
			tb.Fatal(err)
		}
		docs = append(docs, doc)
	}
	return docs
}

func googleCodec(tb testing.TB) *soap.Codec {
	tb.Helper()
	_, codec, err := googleapi.NewDispatcher()
	if err != nil {
		tb.Fatal(err)
	}
	return codec
}

// primedMemo returns a memo that has learnt every shape of memoDocs.
func primedMemo(tb testing.TB, codec *soap.Codec) *soap.EnvelopeMemo {
	tb.Helper()
	m := codec.NewEnvelopeMemo(nil)
	for _, doc := range memoDocs(tb, codec, "primer") {
		for i := 0; i < 2; i++ {
			if _, err := m.Decode(doc); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if n := m.Shapes(); n != 4 {
		tb.Fatalf("memo learnt %d shapes, want 4", n)
	}
	return m
}

// sameDecode fails unless the memo's outcome equals DecodeEnvelope's:
// the same error text, or messages whose parameters have the same
// names and types and encode to the same bytes (EncodeResponse is
// NaN-safe where DeepEqual is not).
func sameDecode(t *testing.T, codec *soap.Codec, got *soap.DecodedMessage, gotErr error, want *soap.DecodedMessage, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("memo error %v, full decode error %v", gotErr, wantErr)
		}
		return
	}
	if got.Wrapper != want.Wrapper || !reflect.DeepEqual(got.Fault, want.Fault) || len(got.Params) != len(want.Params) {
		t.Fatalf("memo message %+v, full decode %+v", got, want)
	}
	for i := range got.Params {
		g, w := got.Params[i], want.Params[i]
		if g.Name != w.Name || reflect.TypeOf(g.Value) != reflect.TypeOf(w.Value) {
			t.Fatalf("param %d: memo %s %T, full decode %s %T", i, g.Name, g.Value, w.Name, w.Value)
		}
		gb, gerr := codec.EncodeResponse(googleapi.Namespace, "op", g.Value)
		wb, werr := codec.EncodeResponse(googleapi.Namespace, "op", w.Value)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !bytes.Equal(gb, wb) {
			t.Fatalf("param %s: memo encodes to\n%s (%v)\nfull decode to\n%s (%v)", g.Name, gb, gerr, wb, werr)
		}
	}
}

// multiRefResponse carries a DirectoryCategory in a multiRef element
// its return part points at, as Axis 1.x writes it.
const multiRefResponse = `<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/" ` +
	`xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">` +
	`<soapenv:Body><ns1:doGoogleSearchResponse xmlns:ns1="urn:GoogleSearch"><return href="#id0"/></ns1:doGoogleSearchResponse>` +
	`<multiRef id="id0" xsi:type="ns1:DirectoryCategory" xmlns:ns1="urn:GoogleSearch">` +
	`<fullViewableName xsi:type="xsd:string">Top/Computers</fullViewableName>` +
	`<specialEncoding xsi:type="xsd:string">utf-8</specialEncoding></multiRef></soapenv:Body></soapenv:Envelope>`

// memoSeeds are the search response and mutated copies of it, one per
// way a document can leave the learnt shape or break a hole.
func memoSeeds(tb testing.TB, codec *soap.Codec) [][]byte {
	tb.Helper()
	search := memoDocs(tb, codec, "seed")[0]
	edit := func(old, new string) []byte {
		if !bytes.Contains(search, []byte(old)) {
			tb.Fatalf("search fixture has no %q", old)
		}
		return bytes.Replace(search, []byte(old), []byte(new), 1)
	}
	flipped := bytes.Clone(search)
	flipped[bytes.Index(flipped, []byte("<searchQuery"))+3] ^= 0x20
	fault, err := codec.EncodeFault(&soap.Fault{Code: "soapenv:Server", String: "boom"})
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{
		edit(">seed<", ">another query<"), // one hole changed
		edit(`<searchComments xsi:type="xsd:string"></searchComments>`, `<searchComments xsi:type="xsd:string">now here</searchComments>`),
		edit(`<language xsi:type="xsd:string">en</language>`, `<language xsi:type="xsd:string"></language>`),
		edit(">seed<", ">fish &amp; chips &#x263A; &lt;b&gt;<"),
		edit(">seed<", ">line one\r\nline two\rthree<"),
		edit(">seed<", ">a ]]> b<"),
		edit(">seed<", ">bad \xff byte<"),
		edit(">seed<", ">bad &bogus; ref<"),
		edit(">seed<", `>see href="#id0" here<`),
		edit(">Top/Computers/Software<", ">Top/\x01<"),
		edit(`<estimatedTotalResultsCount xsi:type="xsd:int">`, `<estimatedTotalResultsCount xsi:type="xsd:int">99999999999999999999`),
		edit(`<startIndex xsi:type="xsd:int">1`, `<startIndex xsi:type="xsd:int"> 7 `),
		edit(`<documentFiltering xsi:type="xsd:boolean">false`, `<documentFiltering xsi:type="xsd:boolean">maybe`),
		edit(">seed<", ">a <!-- comment --> b<"),
		edit(">seed<", "><![CDATA[<raw> & ]]><"),
		flipped,
		search[:len(search)/2],
		append(bytes.Clone(search), "  \n"...),
		append(bytes.Clone(search), "x"...),
		[]byte(multiRefResponse),
		[]byte(strings.Replace(multiRefResponse, `href="#`, `href = "#`, 1)),
		[]byte(strings.Replace(multiRefResponse, `href="#id0"`, "href=\n'#id0'", 1)),
		fault,
	}
}

// memoRequests encodes one request of each shape FuzzMemoDecode primes
// with, as the client sends them: search, doGetItem and doPutItem, for
// query q.
func memoRequests(tb testing.TB, codec *soap.Codec, q string) [][]byte {
	tb.Helper()
	var docs [][]byte
	for _, r := range []struct {
		op     string
		params []soap.Param
	}{
		{googleapi.OpGoogleSearch, googleapi.SearchParams("key", q, 0, 10, false, "", false, "")},
		{googleapi.OpGetItem, googleapi.GetItemParams(q)},
		{googleapi.OpPutItem, googleapi.PutItemParams(q, "value of "+q)},
	} {
		doc, err := codec.EncodeRequest(googleapi.Namespace, r.op, r.params)
		if err != nil {
			tb.Fatal(err)
		}
		docs = append(docs, doc)
	}
	return docs
}

// requestSeeds are the search request and mutated copies of it, one
// per way a request can leave the learnt shape or break a hole.
func requestSeeds(tb testing.TB, codec *soap.Codec) [][]byte {
	tb.Helper()
	search := memoRequests(tb, codec, "seed")[0]
	edit := func(old, new string) []byte {
		if !bytes.Contains(search, []byte(old)) {
			tb.Fatalf("search request has no %q", old)
		}
		return bytes.Replace(search, []byte(old), []byte(new), 1)
	}
	flipped := bytes.Clone(search)
	flipped[bytes.Index(flipped, []byte("<maxResults"))+3] ^= 0x20
	params := func(n int) []byte {
		ps := googleapi.SearchParams("key", "seed", 0, 10, false, "", false, "")
		for i := len(ps); i < n; i++ {
			ps = append(ps, soap.Param{Name: fmt.Sprintf("extra%d", i), Value: i})
		}
		doc, err := codec.EncodeRequest(googleapi.Namespace, googleapi.OpGoogleSearch, ps)
		if err != nil {
			tb.Fatal(err)
		}
		return doc
	}
	return [][]byte{
		edit(">seed<", ">another query<"), // one hole changed
		edit(`<restrict xsi:type="xsd:string"></restrict>`, `<restrict xsi:type="xsd:string">lang_en</restrict>`),
		edit(">seed<", ">fish &amp; chips<"),
		edit(">seed<", ">line one\r\nline two\rthree<"),
		edit(">seed<", ">a ]]> b<"),
		edit(`<start xsi:type="xsd:int">0<`, `<start xsi:type="xsd:int">99999999999999999999<`),
		edit(`<filter xsi:type="xsd:boolean">false<`, `<filter xsi:type="xsd:boolean">maybe<`),
		flipped,
		search[:len(search)-20],
		params(11),
		params(17), // past the parameter bound: never learnt
	}
}

// FuzzMemoDecode is the memo's differential: for every input, a memo
// primed with the search, spelling, cached-page and item response
// shapes and the search, doGetItem and doPutItem request shapes returns
// what DecodeEnvelope returns, and so does a fresh memo that learns the
// input itself and then hits it. Run longer with:
//
//	go test -run NONE -fuzz FuzzMemoDecode ./internal/soap
func FuzzMemoDecode(f *testing.F) {
	codec := googleCodec(f)
	primed := primedMemo(f, codec)
	for _, doc := range memoRequests(f, codec, "primer") {
		for i := 0; i < 2; i++ {
			if _, err := primed.Decode(doc); err != nil {
				f.Fatal(err)
			}
		}
	}
	if n := primed.Shapes(); n != 7 {
		f.Fatalf("memo learnt %d shapes, want 7", n)
	}
	for _, doc := range memoDocs(f, codec, "other") {
		f.Add(doc)
	}
	for _, doc := range memoSeeds(f, codec) {
		f.Add(doc)
	}
	for _, doc := range memoRequests(f, codec, "other") {
		f.Add(doc)
	}
	for _, doc := range requestSeeds(f, codec) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		want, wantErr := codec.DecodeEnvelope(doc)
		got, err := primed.Decode(doc)
		sameDecode(t, codec, got, err, want, wantErr)
		fresh := codec.NewEnvelopeMemo(nil)
		for i := 0; i < 3; i++ {
			got, err := fresh.Decode(doc)
			sameDecode(t, codec, got, err, want, wantErr)
		}
	})
}

// TestMemoLearnsOnSecondSighting: a shape is learnt on its second
// sighting, and a later document of that shape decodes through it.
func TestMemoLearnsOnSecondSighting(t *testing.T) {
	codec := googleCodec(t)
	m := codec.NewEnvelopeMemo(nil)
	a, b := memoDocs(t, codec, "alpha")[0], memoDocs(t, codec, "beta")[0]
	for i, want := range []int{0, 1, 1} {
		got, err := m.Decode(a)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Result(), googleapi.Search("alpha", 0, 10)) {
			t.Fatalf("decode %d: %+v", i, got.Result())
		}
		if n := m.Shapes(); n != want {
			t.Fatalf("after sighting %d the memo has %d shapes, want %d", i+1, n, want)
		}
	}
	got, err := m.Decode(b)
	if err != nil || !reflect.DeepEqual(got.Result(), googleapi.Search("beta", 0, 10)) {
		t.Fatalf("hit decoded %+v, %v", got, err)
	}
}

// TestMemoDecodeAllocs bounds a memo hit on the search response: the
// result struct and its two slices, one string for every hole, the
// message and its Params.
func TestMemoDecodeAllocs(t *testing.T) {
	codec := googleCodec(t)
	m := primedMemo(t, codec)
	doc := memoDocs(t, codec, "measured query")[0]
	best := 1e9
	for i := 0; i < 5; i++ {
		best = min(best, testing.AllocsPerRun(20, func() {
			if _, err := m.Decode(doc); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if best > 8 {
		t.Errorf("a memo hit allocates %v, want <= 8", best)
	}
}

// TestMemoUnrepeatedShapesCostNothing: in a stream where no shape
// repeats, the memo's decode allocates no more than DecodeEnvelope.
func TestMemoUnrepeatedShapesCostNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties the parser pool at random")
	}
	codec := googleCodec(t)
	var docs [][]byte
	for n := 1; n <= 40; n++ {
		r := googleapi.Search("q", 0, 10)
		r.DirectoryCategories = make([]googleapi.DirectoryCategory, n)
		doc, err := codec.EncodeResponse(googleapi.Namespace, googleapi.OpGoogleSearch, r)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	mallocs := func(decode func([]byte) (*soap.DecodedMessage, error)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, doc := range docs {
			if _, err := decode(doc); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	// A collection empties the parser pool; keep it out of the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	full, memo := ^uint64(0), ^uint64(0)
	for i := 0; i < 3; i++ {
		full = min(full, mallocs(codec.DecodeEnvelope))
		m := codec.NewEnvelopeMemo(nil)
		memo = min(memo, mallocs(m.Decode))
	}
	if memo > full {
		t.Errorf("%d unrepeated shapes: memo decode made %d allocations, DecodeEnvelope %d", len(docs), memo, full)
	}
}

// TestMemoResultOwnsItsText: scribbling over a response after a memo
// hit leaves the decoded result as it was.
func TestMemoResultOwnsItsText(t *testing.T) {
	codec := googleCodec(t)
	m := primedMemo(t, codec)
	for _, doc := range memoDocs(t, codec, "owned") {
		want, err := codec.DecodeEnvelope(doc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Decode(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range doc {
			doc[i] = 'x'
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result changed with the body it came from", want.Wrapper.Local)
		}
	}
}

// TestMemoNeverMemoizesFaultsOrMultiRef: faults and multi-ref
// envelopes, however often seen, stay on the full path.
func TestMemoNeverMemoizesFaultsOrMultiRef(t *testing.T) {
	codec := googleCodec(t)
	m := codec.NewEnvelopeMemo(nil)
	fault, err := codec.EncodeFault(&soap.Fault{Code: "soapenv:Server", String: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	multiRef := []byte(multiRefResponse)
	for i := 0; i < 3; i++ {
		for _, doc := range [][]byte{fault, multiRef} {
			want, wantErr := codec.DecodeEnvelope(doc)
			got, err := m.Decode(doc)
			sameDecode(t, codec, got, err, want, wantErr)
		}
	}
	if n := m.Shapes(); n != 0 {
		t.Errorf("memo learnt %d shapes from faults and multi-ref envelopes", n)
	}
}

// TestMemoBoxesSimpleTypes: a whole parameter of every simple XSD type
// decodes through a memo hit exactly as through DecodeEnvelope, for
// text that fits the type, overflows it, is empty, is padded with
// space or does not parse.
func TestMemoBoxesSimpleTypes(t *testing.T) {
	codec := googleCodec(t)
	doc := func(xsd, text string) []byte {
		return []byte(`<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/" ` +
			`xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">` +
			`<soapenv:Body><ns1:probe xmlns:ns1="urn:GoogleSearch"><v xsi:type="xsd:` + xsd + `">` + text +
			`</v></ns1:probe></soapenv:Body></soapenv:Envelope>`)
	}
	texts := []string{"0", "7", " 42 ", "", "-1", "255", "256", "-129", "40000", "-40000",
		"4294967296", "99999999999999999999", "-99999999999999999999", "3.5", "1e40", "-1e400",
		"true", "false", "1", "maybe", "x y"}
	for _, xsd := range []string{"string", "boolean", "int", "long", "short", "byte",
		"unsignedInt", "unsignedLong", "float", "double"} {
		m := codec.NewEnvelopeMemo(nil)
		for i := 0; i < 2; i++ {
			if _, err := m.Decode(doc(xsd, "1")); err != nil {
				t.Fatal(err)
			}
		}
		if n := m.Shapes(); n != 1 {
			t.Fatalf("xsd:%s: memo learnt %d shapes, want 1", xsd, n)
		}
		for _, text := range texts {
			d := doc(xsd, text)
			want, wantErr := codec.DecodeEnvelope(d)
			got, err := m.Decode(d)
			sameDecode(t, codec, got, err, want, wantErr)
		}
	}
}
