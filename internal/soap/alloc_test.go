package soap_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/googleapi"
	"repro/internal/sax"
	"repro/internal/soap"
)

// decodeEnvelopeAllocs is what one decode of the doGoogleSearch
// response allocates on an owned, warmed parser: the character-data
// strings, the decoded values, result objects and slices, and the
// decoder's own stacks.
const decodeEnvelopeAllocs = 100

// TestDecodeEnvelopeAllocs bounds one decode of the doGoogleSearch
// response. The parser is owned rather than drawn from Parse's pool,
// which the race detector empties at random.
func TestDecodeEnvelopeAllocs(t *testing.T) {
	_, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	want := googleapi.Search("fixed query", 0, 10)
	doc, err := codec.EncodeResponse(googleapi.Namespace, googleapi.OpGoogleSearch, want)
	if err != nil {
		t.Fatal(err)
	}
	p := sax.NewParser()
	var msg *soap.DecodedMessage
	decode := func() {
		msg, err = codec.DecodeReplay(func(h sax.Handler) error { return p.Parse(doc, h) })
		if err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if !reflect.DeepEqual(msg.Result(), want) {
		t.Fatalf("decoded %+v, want %+v", msg.Result(), want)
	}
	if got := testing.AllocsPerRun(20, decode); got > decodeEnvelopeAllocs {
		t.Errorf("one decode allocates %v, want <= %d", got, decodeEnvelopeAllocs)
	}
}

// TestDecodeEnvelopeConcurrent: goroutines decoding different
// envelopes at once, through Parse's shared parser pool, each get back
// exactly the object their own envelope carries. Run under -race.
func TestDecodeEnvelopeConcurrent(t *testing.T) {
	_, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	docs := make([][]byte, workers)
	wants := make([]any, workers)
	for i := range docs {
		var op string
		switch i % 3 {
		case 0:
			op, wants[i] = googleapi.OpGoogleSearch, googleapi.Search(fmt.Sprintf("query %d", i), i, 10)
		case 1:
			op, wants[i] = googleapi.OpSpellingSuggestion, googleapi.SpellingSuggestion(fmt.Sprintf("speling %d", i))
		default:
			op, wants[i] = googleapi.OpGetCachedPage, googleapi.CachedPage(fmt.Sprintf("http://example.com/%d", i))
		}
		if docs[i], err = codec.EncodeResponse(googleapi.Namespace, op, wants[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := range docs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				msg, err := codec.DecodeEnvelope(docs[i])
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(msg.Result(), wants[i]) {
					errs <- fmt.Errorf("worker %d: decoded %+v, want %+v", i, msg.Result(), wants[i])
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
