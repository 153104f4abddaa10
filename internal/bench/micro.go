package bench

import (
	"fmt"
	"time"

	"repro/internal/googleapi"
	"repro/internal/memsize"
	"repro/internal/rep"
	"repro/internal/sax"
)

// DefaultIterations matches the paper's measurement loop: "the total
// time to perform 10,000 iterations for each method was measured",
// after an equal warm-up pass.
const DefaultIterations = 10_000

// keyGenerators returns the Table 6 rows in paper order.
func (e *env) keyGenerators() []rep.KeyGenerator {
	return []rep.KeyGenerator{
		rep.NewXMLMessageKey(e.Codec),
		rep.NewBinserKey(e.Reg),
		rep.NewStringKey(),
	}
}

// valueStoreRow pairs a store with its per-operation applicability,
// mirroring the n/a cells of the paper's Table 7.
type valueStoreRow struct {
	store      rep.ValueStore
	applicable map[string]bool // nil means applicable to all
}

// valueStores returns the Table 7 rows in paper order. Applicability
// follows the paper: reflection copy does not apply to the plain
// string result (immutable, not a bean); clone copy applies only to
// the generated GoogleSearchResult class.
func (e *env) valueStores() []valueStoreRow {
	return []valueStoreRow{
		{store: rep.NewXMLMessageStore(e.Codec)},
		{store: rep.NewSAXEventsStore(e.Codec)},
		{store: rep.NewBinserStore(e.Reg)},
		{
			store: rep.NewReflectCopyStore(e.Reg),
			applicable: map[string]bool{
				googleapi.OpGetCachedPage: true,
				googleapi.OpGoogleSearch:  true,
			},
		},
		{
			store: rep.NewCloneCopyStore(),
			applicable: map[string]bool{
				googleapi.OpGoogleSearch: true,
			},
		},
		{store: rep.NewRefStore(e.Reg, true)},
	}
}

// Table6 measures cache-key generation time per method per operation.
func (e *env) Table6(iterations int) (*Table, error) {
	if iterations < 1 {
		return nil, fmt.Errorf("bench: table 6: %d iterations, want at least 1", iterations)
	}
	t := &Table{
		ID:    "Table 6",
		Title: "Processing times for cache key generation",
		Unit:  "msec",
	}
	for _, op := range e.Ops {
		t.Columns = append(t.Columns, op.Label)
	}
	for _, g := range e.keyGenerators() {
		row := row{Name: g.Name()}
		for _, op := range e.Ops {
			// Warm-up pass, then the measured pass (the paper excludes
			// JIT compilation; we exclude cold caches and lazy init).
			if _, err := g.Key(op.Ctx); err != nil {
				return nil, fmt.Errorf("bench: table 6: %s/%s: %w", g.Name(), op.Op, err)
			}
			perCall, err := timeIt(iterations, func() error {
				_, err := g.Key(op.Ctx)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("bench: table 6: %s/%s: %w", g.Name(), op.Op, err)
			}
			row.Cells = append(row.Cells, cell{Value: perCall, Unit: "ms"})
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table7 measures cached-data retrieval time (ValueStore.Load) per
// representation per operation.
func (e *env) Table7(iterations int) (*Table, error) {
	if iterations < 1 {
		return nil, fmt.Errorf("bench: table 7: %d iterations, want at least 1", iterations)
	}
	t := &Table{
		ID:    "Table 7",
		Title: "Processing times for cached data retrieval",
		Unit:  "msec",
	}
	for _, op := range e.Ops {
		t.Columns = append(t.Columns, op.Label)
	}
	for _, vr := range e.valueStores() {
		row := row{Name: vr.store.Name()}
		for _, op := range e.Ops {
			if vr.applicable != nil && !vr.applicable[op.Op] {
				row.Cells = append(row.Cells, cell{NotApplic: true, Unit: "ms"})
				continue
			}
			payload, _, err := vr.store.Store(op.Ctx)
			if err != nil {
				return nil, fmt.Errorf("bench: table 7: %s/%s store: %w", vr.store.Name(), op.Op, err)
			}
			if _, err := vr.store.Load(payload); err != nil {
				return nil, fmt.Errorf("bench: table 7: %s/%s warmup: %w", vr.store.Name(), op.Op, err)
			}
			perCall, err := timeIt(iterations, func() error {
				_, err := vr.store.Load(payload)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("bench: table 7: %s/%s: %w", vr.store.Name(), op.Op, err)
			}
			row.Cells = append(row.Cells, cell{Value: perCall, Unit: "ms"})
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table8 measures the memory size of cache keys per representation.
func (e *env) Table8() (*Table, error) {
	t := &Table{
		ID:    "Table 8",
		Title: "Memory size of cache keys",
		Unit:  "bytes",
	}
	for _, op := range e.Ops {
		t.Columns = append(t.Columns, op.Label)
	}
	for _, g := range e.keyGenerators() {
		row := row{Name: g.Name()}
		for _, op := range e.Ops {
			key, err := g.Key(op.Ctx)
			if err != nil {
				return nil, fmt.Errorf("bench: table 8: %s/%s: %w", g.Name(), op.Op, err)
			}
			row.Cells = append(row.Cells, cell{Value: float64(len(key)), Unit: "bytes"})
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table9 measures the memory size of cached values per representation:
// the XML message, the serialized form, and the application object
// itself (the paper's three rows), plus the SAX event sequence as an
// extra row the paper discusses but does not size.
func (e *env) Table9() (*Table, error) {
	t := &Table{
		ID:    "Table 9",
		Title: "Memory size of cached objects",
		Unit:  "bytes",
	}
	for _, op := range e.Ops {
		t.Columns = append(t.Columns, op.Label)
	}

	rows := []struct {
		name string
		size func(op *opFixture) (int, error)
	}{
		{"XML message", func(op *opFixture) (int, error) {
			return len(op.Ctx.ResponseXML), nil
		}},
		{"Serialized form", func(op *opFixture) (int, error) {
			_, size, err := rep.NewBinserStore(e.Reg).Store(op.Ctx)
			return size, err
		}},
		{"Application object", func(op *opFixture) (int, error) {
			return memsize.Of(op.Ctx.Result), nil
		}},
		{"SAX events sequence", func(op *opFixture) (int, error) {
			return sax.SequenceMemSize(op.Ctx.ResponseEvents), nil
		}},
	}
	for _, r := range rows {
		row := row{Name: r.name}
		for i := range e.Ops {
			size, err := r.size(&e.Ops[i])
			if err != nil {
				return nil, fmt.Errorf("bench: table 9: %s/%s: %w", r.name, e.Ops[i].Op, err)
			}
			row.Cells = append(row.Cells, cell{Value: float64(size), Unit: "bytes"})
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// timeIt runs f iterations times and returns milliseconds per call.
func timeIt(iterations int, f func() error) (float64, error) {
	start := time.Now()
	for i := 0; i < iterations; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(iterations) / 1e6, nil
}
