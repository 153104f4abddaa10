package bench

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/googleapi"
	"repro/internal/obs"
	"repro/internal/rep"
)

func testEnv(t *testing.T) *env {
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

// shapeIters is the timing loop the shape tests run Table6 and Table7
// with: the tests check the tables' layout, not their times, which
// `make tables` prints.
const shapeIters = 10

// cost is what one call allocates: heap objects and bytes.
type cost struct{ allocs, bytes uint64 }

// costPerCall is testing.AllocsPerRun extended to bytes: f runs once to
// warm up, then runs times with GOMAXPROCS at 1, and the heap objects
// and bytes it allocated are averaged per call. Like AllocsPerRun, the
// averages are truncated to integers, so one stray allocation elsewhere
// in the process cannot tip a tie.
func costPerCall(runs int, f func()) cost {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	n := uint64(runs)
	return cost{(after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n}
}

// TestTablesRefuseNoIterations: a timed table with no iterations has
// no per-call time to report, so it is an error, not a row of +Inf.
func TestTablesRefuseNoIterations(t *testing.T) {
	e := testEnv(t)
	for _, iters := range []int{0, -1} {
		if _, err := e.Table6(iters); err == nil {
			t.Errorf("Table6(%d) succeeded", iters)
		}
		if _, err := e.Table7(iters); err == nil {
			t.Errorf("Table7(%d) succeeded", iters)
		}
	}
}

func TestTable6ShapeAndOrdering(t *testing.T) {
	e := testEnv(t)
	tab, err := e.Table6(shapeIters)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 || len(tab.Columns) != 3 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
	// Paper ordering, on the rows in table order: the XML-message key
	// ≫ (here: at least 4×) the serialization key ≥ the string key.
	// Allocations and bytes per key reproduce it exactly; the times
	// are `make tables`' to print. Keys are appended into one reused
	// buffer, as the cache's hit path generates them: Key's pooled
	// scratch buffer would add the pool's refills, which the race
	// detector randomizes.
	gens := e.keyGenerators()
	buf := make([]byte, 0, 16<<10)
	for _, op := range e.Ops {
		var c [3]cost
		for i, g := range gens {
			ka := g.(rep.KeyAppender)
			c[i] = costPerCall(1000, func() {
				if _, err := ka.AppendKey(buf[:0], op.Ctx); err != nil {
					t.Fatal(err)
				}
			})
		}
		xml, ser, str := c[0], c[1], c[2]
		t.Logf("%s: xml %+v, serialization %+v, string %+v", op.Label, xml, ser, str)
		if xml.allocs <= ser.allocs || xml.allocs < 4*ser.allocs || xml.bytes < 4*ser.bytes {
			t.Errorf("%s: xml key %+v not ≫ serialization key %+v", op.Label, xml, ser)
		}
		if ser.allocs < str.allocs || ser.bytes < str.bytes {
			t.Errorf("%s: string key %+v costs more than serialization key %+v", op.Label, str, ser)
		}
	}
}

func TestTable7ShapeAndOrdering(t *testing.T) {
	e := testEnv(t)
	tab, err := e.Table7(shapeIters)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}

	// n/a cells match the paper.
	if c, _ := cellFor(tab, "Copy by reflection", 0); !c.NotApplic {
		t.Error("reflection on string should be n/a")
	}
	if c, _ := cellFor(tab, "Copy by clone", 0); !c.NotApplic {
		t.Error("clone on string should be n/a")
	}
	if c, _ := cellFor(tab, "Copy by clone", 1); !c.NotApplic {
		t.Error("clone on bytes should be n/a")
	}

	// Paper ordering for GoogleSearch, on the rows in table order: xml >
	// sax > serialization > reflect > clone > ref. Allocations and bytes
	// per Load reproduce it strictly.
	op, _ := e.Fixture(googleapi.OpGoogleSearch)
	var prev cost
	var prevName string
	for i, vr := range e.valueStores() {
		payload, _, err := vr.store.Store(op.Ctx)
		if err != nil {
			t.Fatal(err)
		}
		c := costPerCall(100, func() {
			if _, err := vr.store.Load(payload); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %+v", vr.store.Name(), c)
		if i > 0 && (c.allocs >= prev.allocs || c.bytes >= prev.bytes) {
			t.Errorf("ordering violated: %s %+v not cheaper than %s %+v", vr.store.Name(), c, prevName, prev)
		}
		prev, prevName = c, vr.store.Name()
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
		xml, _ := cellFor(tab, "XML message", col)
		ser, _ := cellFor(tab, "Binary serialization", col)
		str, _ := cellFor(tab, "String concatenation", col)
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
		xml, _ := cellFor(tab, "XML message", col)
		obj, _ := cellFor(tab, "Application object", col)
		if obj.Value >= xml.Value {
			t.Errorf("col %d: object %.0f not smaller than XML %.0f", col, obj.Value, xml.Value)
		}
	}
	xml, _ := cellFor(tab, "XML message", 1)
	obj, _ := cellFor(tab, "Application object", 1)
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
	series := []series{{
		Store: "Pass by Reference",
		Points: []point{
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
	// Each point runs on its own registry and checks the requests its
	// hit ratio implies: at 0 % every request goes through the transport
	// to the origin, at 100 % only the pre-warm fills do. Which point is
	// faster is `make figures`' to print; ref < xml is Table 7's Load
	// cost on the same fixture, asserted by TestTable7ShapeAndOrdering.
	const requests, hot = 40, 2
	var curves []series
	for _, spec := range []StoreSpec{FigureStores()[0], FigureStores()[5]} { // XML, Ref
		s := series{Store: spec.Name}
		for _, ratio := range []float64{0, 1.0} {
			reg := obs.NewRegistry()
			got, err := FigureContext(context.Background(), FigureConfig{
				Concurrency:      2,
				RequestsPerPoint: requests,
				HitRatios:        []float64{ratio},
				Stores:           []StoreSpec{spec},
				HotQueries:       hot,
				Obs:              reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			s.Points = append(s.Points, got[0].Points...)
			want := int64(hot)
			if ratio == 0 {
				want += requests
			}
			var sent int64
			for _, s := range reg.Snapshot().Stages {
				if s.Stage == obs.StageSend {
					sent += s.Latency.Count
				}
			}
			c := reg.Op(googleapi.OpGoogleSearch)
			if misses, hits := c.Misses.Load(), c.Hits.Load(); misses != want || sent != want || hits != requests+hot-want {
				t.Errorf("%s @%.0f%%: %d origin calls, %d sends, %d hits; want %d, %d, %d",
					spec.Name, ratio*100, misses, sent, hits, want, want, requests+hot-want)
			}
		}
		curves = append(curves, s)
	}

	out := FormatFigure("Figure 3", "Portal throughput and response time", curves)
	if !strings.Contains(out, "Throughput") || !strings.Contains(out, "Pass by Reference") {
		t.Errorf("figure format:\n%s", out)
	}
}

// cellFor returns the cell at (rowName, col).
func cellFor(t *Table, rowName string, col int) (cell, bool) {
	for _, r := range t.Rows {
		if r.Name == rowName && col < len(r.Cells) {
			return r.Cells[col], true
		}
	}
	return cell{}, false
}
