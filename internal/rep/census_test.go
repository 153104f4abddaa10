package rep_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/googleapi"
	"repro/internal/rep"
	"repro/internal/soap"
)

var update = flag.Bool("update", false, "rewrite testdata/census.golden")

const censusGolden = "testdata/census.golden"

// TestSelectorCensus records which representation the selector reaches
// for every result type the tree registers — googleapi's results and
// the package's test fixtures — crossed with AcceptStream and with the
// response XML captured or not. Each row lists the applicable
// candidates in walk order and the winner, for the L1 order (what
// Selector.Store picks) and the wire order (AppendWire's name); the last
// line names the registered representations no row mentions. A change
// to either order, to an applicability predicate or to what a store
// accepts shows up as a diff against testdata/census.golden; rewrite it
// with -update and say why in the change.
func TestSelectorCensus(t *testing.T) {
	codec, reg, sel, results := census(t)
	l1, wire := sel.Orders()

	seen := map[string]bool{}
	var out bytes.Buffer
	out.WriteString(`# Selector census (TestSelectorCensus). One row per result type x
# AcceptStream x response XML captured: the applicable candidates in
# walk order and the winner, for the L1 order and the wire order.
# Regenerate with: go test ./internal/rep -run TestSelectorCensus -update
`)
	for _, result := range results {
		doc := censusDoc(t, codec, result)
		for _, stream := range []bool{false, true} {
			for _, captured := range []bool{false, true} {
				ictx := &client.Context{
					Ctx:          context.Background(),
					Endpoint:     googleapi.Endpoint,
					Namespace:    googleapi.Namespace,
					Operation:    "census",
					AcceptStream: stream,
					Result:       result,
				}
				if captured {
					ictx.ResponseXML = doc
				}
				l1Cands := candidates(ictx, l1, seen)
				l1Win := "none"
				if payload, _, err := sel.Store(ictx); err == nil {
					l1Win = specName(t, reg, rep.StoredBy(payload))
				} else if !errors.Is(err, rep.ErrNotApplicable) {
					t.Fatalf("%T: Store: %v", result, err)
				}
				wireCands := candidates(ictx, wire, seen)
				wireWin := "none"
				if name, _, err := sel.AppendWire(nil, ictx); err == nil {
					wireWin = name
				}
				seen[l1Win], seen[wireWin] = true, true
				fmt.Fprintf(&out, "%-30s stream=%-5t xml=%-5t | l1: %s -> %s | wire: %s -> %s\n",
					fmt.Sprintf("%T", result), stream, captured, l1Cands, l1Win, wireCands, wireWin)
			}
		}
	}
	var unreached []string
	for _, spec := range reg.Values() {
		if !seen[spec.Name] {
			unreached = append(unreached, spec.Name)
		}
	}
	sort.Strings(unreached)
	fmt.Fprintf(&out, "\nin no row: %s\n", strings.Join(unreached, " "))

	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(censusGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(censusGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("census differs from %s; run with -update and review the diff:\n%s", censusGolden, out.Bytes())
	}
}

// census returns the census's codec, registry and selector, over the
// googleapi types and the fixture's, and its results: googleapi's and
// one of every fixture class.
func census(t *testing.T) (*soap.Codec, *rep.Registry, *rep.Selector, []any) {
	types, fixtures := rep.FixtureResults(t)
	if err := googleapi.RegisterTypes(types); err != nil {
		t.Fatal(err)
	}
	codec := soap.NewCodec(types)
	reg := rep.NewRegistry(types, codec)
	results := append([]any{
		googleapi.SpellingSuggestion("census"),
		googleapi.CachedPage("http://example.com/census"),
		googleapi.Search("census", 0, 3),
		&googleapi.ResultElement{Title: "census"},
		&googleapi.DirectoryCategory{FullViewableName: "census"},
	}, fixtures...)
	return codec, reg, rep.NewStaticSelector(reg), results
}

// censusDoc is the response envelope a census row captures: the
// result's own, or a carrier's for a result the codec cannot encode. A
// result the codec cannot encode still arrives in some envelope; its
// candidates do not depend on which.
func censusDoc(t *testing.T, codec *soap.Codec, result any) []byte {
	t.Helper()
	doc, err := codec.EncodeResponse(googleapi.Namespace, "census", result)
	if err != nil {
		if doc, err = codec.EncodeResponse(googleapi.Namespace, "census", "carrier"); err != nil {
			t.Fatal(err)
		}
	}
	return doc
}

// candidates lists, space-separated, the specs of order whose
// applicability predicate holds, marking each seen.
func candidates(ictx *client.Context, order []*rep.ValueSpec, seen map[string]bool) string {
	var names []string
	for _, spec := range order {
		if spec.Applicable(ictx) {
			names = append(names, spec.Name)
			seen[spec.Name] = true
		}
	}
	if len(names) == 0 {
		return "-"
	}
	return strings.Join(names, " ")
}

// specName returns the registry name of a registered store.
func specName(t *testing.T, reg *rep.Registry, store rep.ValueStore) string {
	t.Helper()
	for _, spec := range reg.Values() {
		if spec.Store == store {
			return spec.Name
		}
	}
	t.Fatalf("store %q is not registered", store.Name())
	return ""
}

// TestPromotionKeepsCensusChoice: an entry promoted from a remote tier
// is held in L1 by the representation an origin fill picks. For every
// TestSelectorCensus row the wire order gives a representation, the
// row's wire bytes are loaded (Selector.LoadWire) by an object consumer
// and by a stream consumer and filled through Pick; the origin fill it
// is compared with is the reader's own — the result the row's envelope
// decodes to, the envelope when the row captured it. The one exception
// is documented on LoadWire: an entry with no envelope (binser,
// compact-sax) read by a stream consumer whose origin fill would replay
// raw bytes lands where an object consumer's origin fill does.
func TestPromotionKeepsCensusChoice(t *testing.T) {
	codec, reg, sel, results := census(t)
	pick := func(ictx *client.Context) string {
		store, _, _, err := sel.Pick(ictx)
		if err != nil {
			return "none"
		}
		return specName(t, reg, store)
	}

	promotions, exceptions := 0, 0
	for _, result := range results {
		doc := censusDoc(t, codec, result)
		for _, writerStreams := range []bool{false, true} {
			for _, captured := range []bool{false, true} {
				row := fmt.Sprintf("%T stream=%t xml=%t", result, writerStreams, captured)
				writer := &client.Context{Ctx: context.Background(), AcceptStream: writerStreams, Result: result}
				if captured {
					writer.ResponseXML = doc
				}
				wire, data, err := sel.AppendWire(nil, writer)
				if err != nil {
					continue
				}
				for _, readerStreams := range []bool{false, true} {
					origin := &client.Context{Ctx: context.Background(), AcceptStream: readerStreams, Result: result}
					if captured {
						msg, err := codec.DecodeEnvelope(doc)
						if err != nil {
							t.Fatalf("%s: %v", row, err)
						}
						origin.ResponseXML, origin.Result = doc, msg.Result()
					}
					promoted := &client.Context{Ctx: context.Background(), AcceptStream: readerStreams}
					if err := sel.LoadWire(wire, append([]byte(nil), data...), promoted); err != nil {
						t.Fatalf("%s: LoadWire(%s): %v", row, wire, err)
					}
					want, got := pick(origin), pick(promoted)
					if readerStreams && want == "raw" && (wire == "binser" || wire == "compact-sax") {
						origin.AcceptStream = false
						want = pick(origin)
						exceptions++
					}
					if got != want {
						t.Errorf("%s, %s entry read by stream=%t: promoted into %s, an origin fill picks %s", row, wire, readerStreams, got, want)
					}
					promotions++
				}
			}
		}
	}
	t.Logf("%d promotions, %d of them the documented exception", promotions, exceptions)
	if promotions == 0 || exceptions == 0 {
		t.Fatal("the census no longer covers promotions and the exception")
	}
}
