package soap

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/typemap"
)

// These tests hold the pooled encoder to a fresh one: whatever an
// encoder did before — minted a namespace prefix, failed halfway —
// reset leaves nothing of it in the next envelope.

// encodeOwned encodes a response envelope with e, an encoder the test
// holds itself instead of drawing it from the pool, reset exactly as a
// pooled one is. The result aliases e's buffer until e's next use.
func (c *Codec) encodeOwned(e *encoder, targetNS, operation string, result any) ([]byte, error) {
	e.reset(c.reg, targetNS)
	if err := e.response(operation, result); err != nil {
		return nil, err
	}
	return e.b.Bytes(), nil
}

// freshResponse encodes with an encoder that has never been used.
func freshResponse(t *testing.T, c *Codec, targetNS, operation string, result any) []byte {
	t.Helper()
	doc, err := c.encodeOwned(new(encoder), targetNS, operation, result)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// halfway encodes a foreign-namespace field, minting its prefix, and
// then fails on a field of a kind SOAP encoding does not support.
type halfway struct {
	Remote foreignThing
	Bad    map[string]int
}

func newHalfwayCodec(t *testing.T) *Codec {
	t.Helper()
	c := newMultiNSCodec(t)
	if err := c.reg.Register(typemap.QName{Space: testNS, Local: "Halfway"}, halfway{}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEncoderPrefixResetOnReuse: on one reused encoder, an envelope that
// mints the ns2 prefix is followed by one that needs no extra namespace,
// which must declare none, and then by one that needs the namespace
// again, which must declare it again. Each is byte-identical to a fresh
// encoder's.
func TestEncoderPrefixResetOnReuse(t *testing.T) {
	c := newMultiNSCodec(t)
	minting := &crossRef{Local: directoryCategory{FullViewableName: "L"}, Remote: foreignThing{Value: "R"}}
	plain := &directoryCategory{FullViewableName: "plain"}
	var enc encoder
	for i, result := range []any{minting, plain, []foreignThing{{Value: "a"}}} {
		got, err := c.encodeOwned(&enc, testNS, "op", result)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshResponse(t, c, testNS, "op", result); !bytes.Equal(got, want) {
			t.Errorf("envelope %d on a reused encoder:\n got: %s\nwant: %s", i, got, want)
		}
		declares := bytes.Contains(got, []byte(`xmlns:ns2=`))
		if wantDecl := result != any(plain); declares != wantDecl {
			t.Errorf("envelope %d declares ns2: %v, want %v:\n%s", i, declares, wantDecl, got)
		}
	}
}

// TestEncoderCleanAfterFailure: an encode that fails halfway, after
// minting a prefix and writing part of an envelope, leaves an encoder
// whose next envelope is a fresh encoder's — on an owned encoder, and
// through the pool.
func TestEncoderCleanAfterFailure(t *testing.T) {
	c := newHalfwayCodec(t)
	bad := &halfway{Remote: foreignThing{Value: "R"}}
	good := []foreignThing{{Value: "a"}, {Value: "b"}}
	want := freshResponse(t, c, testNS, "op", good)

	var enc encoder
	if _, err := c.encodeOwned(&enc, testNS, "op", bad); err == nil || !strings.Contains(err.Error(), "unsupported kind map") {
		t.Fatalf("halfway encode: err = %v, want the unsupported map field", err)
	}
	if enc.b.Len() == 0 || len(enc.minted) == 0 {
		t.Fatal("the failing encode neither wrote nor minted: it does not fail halfway")
	}
	if got, err := c.encodeOwned(&enc, testNS, "op", good); err != nil || !bytes.Equal(got, want) {
		t.Errorf("after a failure, reused encoder wrote (err %v):\n%s\nwant:\n%s", err, got, want)
	}

	for i := 0; i < 4; i++ {
		if _, err := c.EncodeResponse(testNS, "op", bad); err == nil {
			t.Fatal("halfway encode succeeded")
		}
		if got, err := c.EncodeResponse(testNS, "op", good); err != nil || !bytes.Equal(got, want) {
			t.Errorf("after a failure, pooled encoder wrote (err %v):\n%s\nwant:\n%s", err, got, want)
		}
	}
}

// encodeResponseAllocs is what one encode of the doGoogleSearch response
// allocates on an owned, warmed encoder: nothing. Names, markup and
// numbers are appended into the encoder's buffer; EncodeResponse adds
// one exact-size copy of the envelope.
const encodeResponseAllocs = 0

// TestEncodeResponseAllocs bounds one encode of the doGoogleSearch
// response. The encoder is owned rather than drawn from the pool, which
// the race detector empties at random.
func TestEncodeResponseAllocs(t *testing.T) {
	c := newTestCodec(t)
	result := sampleResult()
	var enc encoder
	encode := func() {
		if _, err := c.encodeOwned(&enc, testNS, "doGoogleSearch", result); err != nil {
			t.Fatal(err)
		}
	}
	encode()
	got := testing.AllocsPerRun(20, encode)
	t.Logf("%d-byte envelope: %v allocs", enc.b.Len(), got)
	if got > encodeResponseAllocs {
		t.Errorf("one encode allocates %v, want <= %d", got, encodeResponseAllocs)
	}
}

// TestEncodeResponseConcurrent: goroutines encoding different responses
// at once, through the shared encoder pool, each get exactly the bytes
// a fresh encoder writes, from EncodeResponse and WriteResponse alike.
// Half of them mint a second namespace prefix. Run under -race.
func TestEncodeResponseConcurrent(t *testing.T) {
	c := newMultiNSCodec(t)
	const workers = 8
	results := make([]any, workers)
	wants := make([][]byte, workers)
	for i := range results {
		name := fmt.Sprintf("worker <%d> & co", i)
		if i%2 == 0 {
			results[i] = &crossRef{Local: directoryCategory{FullViewableName: name}, Remote: foreignThing{Value: name}}
		} else {
			results[i] = []directoryCategory{{FullViewableName: name}, {SpecialEncoding: name}}
		}
		wants[i] = freshResponse(t, c, testNS, "op", results[i])
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				doc, err := c.EncodeResponse(testNS, "op", results[i])
				if err != nil || !bytes.Equal(doc, wants[i]) {
					errs <- fmt.Errorf("worker %d: EncodeResponse (err %v) diverges from a fresh encoder:\n%s", i, err, doc)
					return
				}
				var same bool
				err = c.WriteResponse(testNS, "op", results[i], func(env []byte) {
					same = bytes.Equal(env, wants[i])
				})
				if err != nil || !same {
					errs <- fmt.Errorf("worker %d: WriteResponse (err %v) diverges from a fresh encoder", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
