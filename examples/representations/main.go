// Representations: the same response cached under every value
// representation of the paper's Table 3, showing (a) the cost of a
// cache hit under each, (b) the side-effect behaviour — which
// representations isolate the cache from client mutations — (c) what
// the Section 6 run-time classifier picks for each result type, and
// (d) the adaptive selector's live decision table: the per-candidate
// Store/Load costs it measured (the run-time analogue of the paper's
// Table 7) and the representation it chose per operation.
//
//	go run ./examples/representations
package main

import (
	"fmt"
	"io"
	"log"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/googleapi"
	"repro/internal/rep"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	env, err := bench.NewEnv()
	if err != nil {
		return err
	}
	search, _ := env.Fixture(googleapi.OpGoogleSearch)

	stores := []rep.ValueStore{
		rep.NewXMLMessageStore(env.Codec),
		rep.NewSAXEventsStore(env.Codec),
		rep.NewBinserStore(env.Reg),
		rep.NewReflectCopyStore(env.Reg),
		rep.NewCloneCopyStore(),
		rep.NewRefStore(env.Reg, true), // read-only asserted
	}

	fmt.Println("Per-hit cost and aliasing behaviour for doGoogleSearch:")
	fmt.Printf("%-22s %12s  %s\n", "representation", "hit cost", "client mutation visible in next hit?")
	for _, store := range stores {
		payload, _, err := store.Store(search.Ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", store.Name(), err)
		}

		// Time one hundred hits.
		const n = 100
		start := time.Now()
		var last any
		for i := 0; i < n; i++ {
			last, err = store.Load(payload)
			if err != nil {
				return fmt.Errorf("%s: %w", store.Name(), err)
			}
		}
		perHit := time.Since(start) / n

		// Mutate the object a hit returned, then take another hit: does
		// the mutation leak into the cache (call-by-copy violation)?
		last.(*googleapi.GoogleSearchResult).SearchQuery = "MUTATED BY CLIENT"
		again, err := store.Load(payload)
		if err != nil {
			return err
		}
		leaked := again.(*googleapi.GoogleSearchResult).SearchQuery == "MUTATED BY CLIENT"

		note := "no (safe)"
		if leaked {
			note = "YES — shared reference; requires read-only assertion"
		}
		fmt.Printf("%-22s %12v  %s\n", store.Name(), perHit, note)
	}

	// The streaming representations (DESIGN.md §5i): consumers that
	// accept serialized bytes instead of objects skip materialization
	// entirely. Raw replay stores the exact response; the XML template
	// shares one skeleton per response shape and splices only the
	// character data per entry.
	fmt.Println("\nStreaming representations (stream-accepting consumers, DESIGN.md §5i):")
	fmt.Printf("%-22s %12s  %s\n", "representation", "replay cost", "notes")
	tmplStore := rep.NewTemplateStore()
	for _, store := range []rep.ValueStore{rep.NewRawStreamStore(), tmplStore} {
		payload, _, err := store.Store(search.Ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", store.Name(), err)
		}
		const n = 100
		start := time.Now()
		for i := 0; i < n; i++ {
			loaded, err := store.Load(payload)
			if err != nil {
				return fmt.Errorf("%s: %w", store.Name(), err)
			}
			if _, err := loaded.(rep.Streamed).WriteTo(io.Discard); err != nil {
				return fmt.Errorf("%s: %w", store.Name(), err)
			}
		}
		perHit := time.Since(start) / n
		note := "exact bytes, zero-copy replay"
		if ts, ok := store.(*rep.TemplateStore); ok {
			s := ts.Stats()
			note = fmt.Sprintf("%d skeleton(s) of %d bytes shared; %d build(s), %d splice(s)",
				s.Skeletons, s.SkeletonBytes, s.Builds, s.Splices)
		}
		fmt.Printf("%-22s %12v  %s\n", store.Name(), perHit, note)
	}

	// The Section 6 classifier at work on the three result classes.
	reps := rep.NewRegistry(env.Reg, env.Codec)
	auto := rep.NewStaticSelector(reps)
	fmt.Println("\nStatic selector (Section 6 optimal configuration) decisions:")
	for i := range env.Ops {
		op := &env.Ops[i]
		fmt.Printf("  %-22s %-24T -> %s\n", op.Op, op.Ctx.Result, auto.Classify(op.Ctx))
	}
	// The same results for a stream-accepting consumer: the classifier
	// pre-empts every object representation with raw replay.
	streamCtx := *search.Ctx
	streamCtx.AcceptStream = true
	fmt.Printf("  %-22s %-24s -> %s\n", googleapi.OpGoogleSearch, "(AcceptStream)", auto.Classify(&streamCtx))

	// The adaptive selector measuring the same fixtures: feed it enough
	// fills and hits per operation to converge, then print the costs it
	// observed and what it chose.
	sel, err := rep.NewAdaptiveSelector(rep.SelectorConfig{Registry: reps})
	if err != nil {
		return err
	}
	const fills = 33 // past the minimum probe rounds at the default 1-in-8 probing
	for i := range env.Ops {
		op := &env.Ops[i]
		for j := 0; j < fills; j++ {
			payload, _, err := sel.Store(op.Ctx)
			if err != nil {
				return fmt.Errorf("adaptive %s: %w", op.Op, err)
			}
			if _, err := sel.Load(payload); err != nil {
				return fmt.Errorf("adaptive %s: %w", op.Op, err)
			}
		}
	}

	fmt.Println("\nAdaptive selector decision table (measured; compare Table 7):")
	for _, d := range sel.DecisionTable() {
		fmt.Printf("  %s %s -> %s (%s, %d fills)\n", d.Operation, d.ResultType, d.Chosen, d.Source, d.Stores)
		fmt.Printf("    %-22s %9s %12s %12s %10s %12s\n",
			"candidate", "samples", "store", "load", "bytes", "score")
		for _, c := range d.Costs {
			fmt.Printf("    %-22s %9d %12v %12v %10.0f %12.0f\n",
				c.Rep, c.Samples,
				time.Duration(c.StoreNS).Round(time.Microsecond),
				time.Duration(c.LoadNS).Round(time.Microsecond),
				c.Bytes, c.Score)
		}
	}
	fmt.Println(strings.Repeat("-", 72))
	fmt.Println("score = load + bytes/budget x store: expected cost of serving a hit")
	return nil
}
