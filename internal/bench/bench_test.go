package bench

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/googleapi"
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	e, err := NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEnvFixtures(t *testing.T) {
	e := testEnv(t)
	if len(e.Ops) != 3 {
		t.Fatalf("ops = %d", len(e.Ops))
	}
	for _, op := range e.Ops {
		if op.Ctx.Result == nil || len(op.Ctx.ResponseXML) == 0 || len(op.Ctx.ResponseEvents) == 0 {
			t.Errorf("%s fixture incomplete", op.Op)
		}
	}
	if _, ok := e.Fixture(googleapi.OpGoogleSearch); !ok {
		t.Error("Fixture lookup failed")
	}
	if _, ok := e.Fixture("nope"); ok {
		t.Error("bogus fixture found")
	}
}

// iters trades speed against timing stability: enough iterations that
// orderings are reliable, far fewer than the paper's 10,000.
const iters = 2000

func TestTable6ShapeAndOrdering(t *testing.T) {
	e := testEnv(t)
	tab, err := e.Table6(iters)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 || len(tab.Columns) != 3 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
	// Paper shape: the XML-message key is the slowest by a wide margin;
	// the string key is the fastest. The serialization key sits between
	// them in the paper; here it can tie the string key (both are a few
	// hundred nanoseconds), so the assertion allows a near-tie — with
	// headroom, because under full-suite load on a single CPU the two
	// sub-microsecond timings jitter past a tight 2x bound.
	// The race detector inflates costs unevenly; only the raw ordering
	// is asserted under -race.
	xmlFactor, strFactor, tieFactor := 2.0, 4.0, 3.0
	if raceEnabled {
		xmlFactor, strFactor, tieFactor = 1.0, 1.0, 4.0
	}
	for col := range tab.Columns {
		xml, _ := tab.CellFor("XML message", col)
		ser, _ := tab.CellFor("Binary serialization", col)
		str, _ := tab.CellFor("String concatenation", col)
		if xml.Value < xmlFactor*ser.Value {
			t.Errorf("col %d: xml key %.5f not ≫ serialization key %.5f", col, xml.Value, ser.Value)
		}
		if xml.Value < strFactor*str.Value {
			t.Errorf("col %d: xml key %.5f not ≫ string key %.5f", col, xml.Value, str.Value)
		}
		if str.Value > tieFactor*ser.Value {
			t.Errorf("col %d: string key %.5f slower than serialization key %.5f", col, str.Value, ser.Value)
		}
	}
}

func TestTable7ShapeAndOrdering(t *testing.T) {
	e := testEnv(t)
	tab, err := e.Table7(iters)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}

	// n/a cells match the paper.
	if c, _ := tab.CellFor("Copy by reflection", 0); !c.NotApplic {
		t.Error("reflection on string should be n/a")
	}
	if c, _ := tab.CellFor("Copy by clone", 0); !c.NotApplic {
		t.Error("clone on string should be n/a")
	}
	if c, _ := tab.CellFor("Copy by clone", 1); !c.NotApplic {
		t.Error("clone on bytes should be n/a")
	}

	// Paper ordering for GoogleSearch (col 2): ref < clone < reflect <
	// gob < sax < xml.
	get := func(name string) float64 {
		c, ok := tab.CellFor(name, 2)
		if !ok || c.NotApplic {
			t.Fatalf("missing cell %s", name)
		}
		return c.Value
	}
	ref := get("Pass by reference")
	clone := get("Copy by clone")
	refl := get("Copy by reflection")
	ser := get("Binary serialization")
	saxT := get("SAX events sequence")
	xml := get("XML message")
	if !(ref < clone && clone < refl && refl < ser && ser < saxT && saxT < xml) {
		t.Errorf("ordering violated: ref %.5f clone %.5f reflect %.5f ser %.5f sax %.5f xml %.5f",
			ref, clone, refl, ser, saxT, xml)
	}
}

func TestTable8Shape(t *testing.T) {
	e := testEnv(t)
	tab, err := e.Table8()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: concatenated string keys are the smallest, XML the
	// largest, for every operation.
	for col := range tab.Columns {
		xml, _ := tab.CellFor("XML message", col)
		ser, _ := tab.CellFor("Binary serialization", col)
		str, _ := tab.CellFor("String concatenation", col)
		if !(str.Value < ser.Value && ser.Value < xml.Value) {
			t.Errorf("col %d sizes: str %.0f ser %.0f xml %.0f", col, str.Value, ser.Value, xml.Value)
		}
	}
}

func TestTable9Shape(t *testing.T) {
	e := testEnv(t)
	tab, err := e.Table9()
	if err != nil {
		t.Fatal(err)
	}
	// Spelling (col 0) and search (col 2): object much smaller than
	// XML. CachedPage (col 1): all representations are dominated by
	// the byte array, so sizes are comparable (paper's observation).
	for _, col := range []int{0, 2} {
		xml, _ := tab.CellFor("XML message", col)
		obj, _ := tab.CellFor("Application object", col)
		if obj.Value >= xml.Value {
			t.Errorf("col %d: object %.0f not smaller than XML %.0f", col, obj.Value, xml.Value)
		}
	}
	xml, _ := tab.CellFor("XML message", 1)
	obj, _ := tab.CellFor("Application object", 1)
	if obj.Value < xml.Value/2 || obj.Value > xml.Value*2 {
		t.Errorf("cached page sizes should be comparable: obj %.0f xml %.0f", obj.Value, xml.Value)
	}
}

func TestTableFormat(t *testing.T) {
	e := testEnv(t)
	tab, err := e.Table8()
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Format()
	for _, want := range []string{"Table 8", "Spelling Suggestion", "XML message"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	e := testEnv(t)
	tab, err := e.Table8()
	if err != nil {
		t.Fatal(err)
	}
	csv := tab.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 5 { // header, columns, 3 rows
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "table,Table 8") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "XML message,") {
		t.Errorf("row = %q", lines[2])
	}
}

func TestCSVQuote(t *testing.T) {
	if csvQuote("plain") != "plain" {
		t.Error("plain quoted")
	}
	if csvQuote(`has,comma`) != `"has,comma"` {
		t.Error("comma not quoted")
	}
	if csvQuote(`has"quote`) != `"has""quote"` {
		t.Error("quote not doubled")
	}
}

func TestCSVFigure(t *testing.T) {
	series := []FigureSeries{{
		Store: "Pass by Reference",
		Points: []FigurePoint{
			{HitRatio: 0, Throughput: 100, AvgLatency: 2 * time.Millisecond},
			{HitRatio: 1, Throughput: 900, AvgLatency: 100 * time.Microsecond},
		},
	}}
	csv := CSVFigure(series)
	for _, want := range []string{
		"method,metric,hit_ratio,value",
		"Pass by Reference,throughput_rps,0.00,100.0",
		"Pass by Reference,avg_latency_ms,1.00,0.1000",
	} {
		if !strings.Contains(csv, want) {
			t.Errorf("csv missing %q:\n%s", want, csv)
		}
	}
}

func TestFigureUnknownOperation(t *testing.T) {
	if _, err := FigureContext(context.Background(), FigureConfig{Operation: "noSuchOp", RequestsPerPoint: 1}); err == nil {
		t.Error("unknown operation accepted")
	}
}

// TestStoreSpecByName: portalbench -rep takes the paper's legend
// labels, "auto" and every registry name; anything else, "adaptive"
// included, fails with the registry's list of names.
func TestStoreSpecByName(t *testing.T) {
	for query, want := range map[string]string{
		"Pass by Reference": "ref",
		"sax":               "sax",
		"auto":              "auto",
		"dom":               "dom",
	} {
		spec, err := StoreSpecByName(query)
		if err != nil || spec.Rep != want {
			t.Errorf("StoreSpecByName(%q) = %q, %v; want %q", query, spec.Rep, err, want)
		}
	}
	_, err := StoreSpecByName("adaptive")
	if err == nil {
		t.Fatal("adaptive accepted")
	}
	for _, want := range []string{"clone", "xmltmpl", "auto"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list %s", err, want)
		}
	}
}

func TestFigureSpellingOperation(t *testing.T) {
	if testing.Short() {
		t.Skip("portal sweep is slow")
	}
	series, err := FigureContext(context.Background(), FigureConfig{
		Concurrency:      1,
		RequestsPerPoint: 20,
		HitRatios:        []float64{1.0},
		Stores:           []StoreSpec{FigureStores()[5]},
		HotQueries:       1,
		Operation:        googleapi.OpSpellingSuggestion,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || series[0].Points[0].Throughput <= 0 {
		t.Errorf("series = %+v", series)
	}
}

func TestFigureSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("portal sweep is slow")
	}
	series, err := FigureContext(context.Background(), FigureConfig{
		Concurrency:      2,
		RequestsPerPoint: 40,
		HitRatios:        []float64{0, 1.0},
		Stores: []StoreSpec{
			FigureStores()[0], // XML
			FigureStores()[5], // Ref
		},
		HotQueries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || len(series[0].Points) != 2 {
		t.Fatalf("series shape wrong: %+v", series)
	}
	// At 100% hits every method must beat its own 0% throughput.
	for _, s := range series {
		if s.Points[1].Throughput <= s.Points[0].Throughput {
			t.Errorf("%s: 100%% hits (%.0f rps) not faster than 0%% (%.0f rps)",
				s.Store, s.Points[1].Throughput, s.Points[0].Throughput)
		}
	}
	// Pass-by-reference at 100% must beat XML at 100%.
	if series[1].Points[1].Throughput <= series[0].Points[1].Throughput {
		t.Errorf("ref (%.0f rps) not faster than xml (%.0f rps) at 100%%",
			series[1].Points[1].Throughput, series[0].Points[1].Throughput)
	}

	out := FormatFigure("Figure 3", "Portal throughput and response time", series)
	if !strings.Contains(out, "Throughput") || !strings.Contains(out, "Pass by Reference") {
		t.Errorf("figure format:\n%s", out)
	}
}
