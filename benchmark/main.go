// Command benchmark is the repository's referee benchmark: it assembles
// the production stack from public constructors, drives six serving-path
// workloads through it in a closed loop, checks every response, and
// prints every metric by name with its unit. See README.md.
//
//	go run ./benchmark -seed 1 -out result.json          # all six workloads, timed then traced
//	go run ./benchmark -compare a.json b.json            # regression gate between two results
//	go run ./benchmark -workload l1_obj -seconds 15 -trace 0   # one run, as the PR driver issues it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// meta records the sizing a result was measured under.
type meta struct {
	Seed         int64   `json:"seed"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Clients      int     `json:"clients"`
	Slices       int     `json:"slices"`
	SliceSeconds float64 `json:"slice_seconds"`
	GoVersion    string  `json:"go_version"`
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Why       string           `json:"why"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
}

// result is the -out file: what -compare reads.
type result struct {
	Meta      meta                       `json:"meta"`
	Bounds    []metricDef                `json:"bounds"`
	Workloads map[string]*workloadResult `json:"workloads"`
	// Ledger and Harness do not depend on the workload.
	Ledger  map[string]value `json:"ledger,omitempty"`
	Harness map[string]value `json:"harness,omitempty"`
}

// config is one invocation's sizing.
type config struct {
	seed     int64
	clients  int
	scale    int // 1 at full size; the smoke test runs at 16
	setups   int // set-ups per end-to-end run; setup_s is their median
	slice    time.Duration
	traceOut string
}

func (c config) params() params {
	return params{seed: c.seed, clients: c.clients, scale: c.scale}
}

// runEndToEnd sets the workload up c.setups times (setup_s is their
// median), then measures the last instance with tracing off.
func runEndToEnd(w *workload, c config) (*workloadResult, *phase, error) {
	var rd *ready
	setups := make([]float64, 0, c.setups)
	for i := 0; i < c.setups; i++ {
		if rd != nil {
			if err := rd.in.env.close(); err != nil {
				return nil, nil, fmt.Errorf("%s: tear-down: %w", w.name, err)
			}
		}
		var err error
		if rd, err = setUp(w, c.params()); err != nil {
			return nil, nil, err
		}
		setups = append(setups, rd.setupS)
	}
	ph := rd.measure(slicesPerRun, c.slice)
	heap := heapLiveMB()
	if err := rd.in.env.close(); err != nil {
		return nil, nil, fmt.Errorf("%s: tear-down: %w", w.name, err)
	}
	wr := &workloadResult{Why: w.why, Attempted: ph.ops, Failed: ph.failed, EndToEnd: endToEndValues(&ph, setups, heap)}
	return wr, &ph, finite(wr.EndToEnd)
}

// tracedSlices is the length of the traced phase, in slices.
const tracedSlices = 2

// runLayers measures the per-layer metrics: the same traffic on a stack
// rebuilt with the timing wrappers installed. ref is the untraced phase
// the tracing overhead is taken against; when nil a one-slice reference
// is measured first.
func runLayers(w *workload, c config, ref *phase) (*workloadResult, error) {
	wr := &workloadResult{Why: w.why}
	if ref == nil {
		rd, err := setUp(w, c.params())
		if err != nil {
			return nil, err
		}
		ph := rd.measure(1, c.slice)
		if err := rd.in.env.close(); err != nil {
			return nil, fmt.Errorf("%s: tear-down: %w", w.name, err)
		}
		ref = &ph
		wr.Attempted, wr.Failed = ph.ops, ph.failed
	}
	p := c.params()
	p.tr = newTracer()
	rd, err := setUp(w, p)
	if err != nil {
		return nil, err
	}
	ph := rd.measure(tracedSlices, c.slice)
	// Closing waits for every server goroutine, so the ring is quiet.
	if err := rd.in.env.close(); err != nil {
		return nil, fmt.Errorf("%s: tear-down: %w", w.name, err)
	}
	wr.Attempted += ph.ops
	wr.Failed += ph.failed
	spans := p.tr.spans()
	if c.traceOut != "" {
		if err := writeSpans(c.traceOut, w.name, spans); err != nil {
			return nil, fmt.Errorf("%s: write spans: %w", w.name, err)
		}
	}
	wr.PerLayer = merge(tracedValues(analyze(spans)), countValues(&ph), tailValues(ref))
	wr.PerLayer["trace.lat_p50_ns"] = value{Value: ph.all.Quantile(0.5), Unit: "ns"}
	wr.PerLayer["trace.overhead_ratio"] = value{Value: ph.throughput() / ref.throughput(), Unit: "ratio"}
	return wr, finite(wr.PerLayer)
}

func (ph *phase) throughput() float64 {
	var elapsed time.Duration
	for i := range ph.slices {
		elapsed += ph.slices[i].elapsed
	}
	return float64(ph.ops) / elapsed.Seconds()
}

// harnessValues calibrates the closed loop itself.
func harnessValues(clients int) map[string]value {
	ns, allocs := calibrate(clients)
	return map[string]value{
		"harness.overhead_ns":   {Value: ns, Unit: "ns"},
		"harness.allocs_per_op": {Value: allocs, Unit: "count"},
	}
}

// printRows prints the named metrics (all of them, sorted, when names is
// nil), one per line with its unit.
func printRows(workload string, names []string, m map[string]value) {
	if names == nil {
		names = sortedNames(m)
	}
	for _, name := range names {
		fmt.Printf("%-12s %-44s %16.4f %s\n", workload, name, m[name].Value, m[name].Unit)
	}
}

// endToEndNames lists the end-to-end metrics in their declared order.
var endToEndNames = func() []string {
	names := make([]string, len(endToEnd))
	for i, d := range endToEnd {
		names[i] = d.Name
	}
	return names
}()

// driverLine is the last line of standard output in single-workload
// mode, the form the PR driver parses.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"` // value and unit only: no samples
}

// runOne is the PR driver's entry: one workload, end-to-end metrics
// with tracing off or per-layer metrics with it on.
func runOne(w *workload, c config, traced bool) error {
	line := driverLine{Metrics: make(map[string]value)}
	var wr *workloadResult
	var err error
	if !traced {
		if wr, _, err = runEndToEnd(w, c); err != nil {
			return err
		}
		printRows(w.name, endToEndNames, wr.EndToEnd)
		for _, name := range endToEndNames[:gatedEndToEnd] {
			v := wr.EndToEnd[name]
			line.Metrics[name] = value{Value: v.Value, Unit: v.Unit}
		}
	} else {
		if wr, err = runLayers(w, c, nil); err != nil {
			return err
		}
		led, err := ledger(c.scale)
		if err != nil {
			return err
		}
		merge(line.Metrics, wr.PerLayer, led, harnessValues(c.clients))
		// The driver wants every declared per-layer metric on every
		// workload; a layer this workload never enters reads 0.
		for _, name := range tracedNames {
			if _, ok := line.Metrics[name]; !ok {
				unit := "ns"
				if strings.HasSuffix(name, "_per_op") {
					unit = "1/op"
				}
				line.Metrics[name] = value{Unit: unit}
			}
		}
		printRows(w.name, nil, line.Metrics)
	}
	line.Attempted, line.Failed = wr.Attempted, wr.Failed
	line.Correct = wr.Failed == 0
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their oracle", w.name, wr.Failed, wr.Attempted)
	}
	return nil
}

// tracedNames are the span metrics tracedValues can produce.
var tracedNames = func() []string {
	var lt layerTimes
	for i := range lt.self {
		lt.self[i].perOp, lt.incl[i].perOp = 1, 1
	}
	lt.wire.perOp = 1
	return sortedNames(tracedValues(lt))
}()

// runAll is the full run: every selected workload timed with tracing
// off, then traced, plus the workload-independent ledger.
func runAll(selected []*workload, c config, outPath string) error {
	res := result{
		Meta: meta{
			Seed: c.seed, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: c.clients,
			Slices: slicesPerRun, SliceSeconds: c.slice.Seconds(), GoVersion: runtime.Version(),
		},
		Bounds:    endToEnd,
		Workloads: make(map[string]*workloadResult),
	}
	if c.traceOut != "" {
		if err := os.WriteFile(c.traceOut, nil, 0o644); err != nil {
			return err
		}
	}
	var failed int64
	for _, w := range selected {
		wr, ph, err := runEndToEnd(w, c)
		if err != nil {
			return err
		}
		printRows(w.name, endToEndNames, wr.EndToEnd)
		lr, err := runLayers(w, c, ph)
		if err != nil {
			return err
		}
		wr.PerLayer = lr.PerLayer
		printRows(w.name, nil, wr.PerLayer)
		failed += wr.Failed + lr.Failed
		res.Workloads[w.name] = wr
	}
	var err error
	if res.Ledger, err = ledger(c.scale); err != nil {
		return err
	}
	printRows("ledger", nil, res.Ledger)
	res.Harness = harnessValues(c.clients)
	printRows("harness", nil, res.Harness)
	if outPath != "" {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed their oracle", failed)
	}
	return nil
}

// options are the command line.
type options struct {
	seed      int64
	outPath   string
	traceOut  string
	workloads string
	slice     time.Duration
	compare   bool
	workload  string
	seconds   int
	trace     int
}

func main() {
	var o options
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.StringVar(&o.outPath, "out", "", "write the full result as JSON to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced phases' spans to this file, one JSON object per line (default: beside -out)")
	flag.StringVar(&o.workloads, "workloads", "", "comma-separated workloads to run (default: all six)")
	flag.DurationVar(&o.slice, "slice", 3*time.Second, "length of one timed slice; a run times five")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files given as arguments instead of running")
	flag.StringVar(&o.workload, "workload", "", "run this one workload and end with the PR driver's JSON line")
	flag.IntVar(&o.seconds, "seconds", 0, "with -workload: total timed seconds, i.e. five slices of a fifth each")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports end-to-end metrics with tracing off, 1 per-layer metrics from a traced run")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two result files, got %d arguments", len(args))
		}
		return compareFiles(args[0], args[1])
	}
	if o.slice <= 0 {
		return fmt.Errorf("-slice is %v; want a positive duration", o.slice)
	}
	// Go 1.22 sizes GOMAXPROCS from the host, not the container quota;
	// pin it to what the result records.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	holdBallast()
	c := config{seed: o.seed, clients: min(nproc, 2), scale: 1, setups: setupRepeats, slice: o.slice, traceOut: o.traceOut}

	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		if o.seconds > 0 {
			c.slice = time.Duration(o.seconds) * time.Second / slicesPerRun
		}
		if o.trace != 0 && o.trace != 1 {
			return fmt.Errorf("-trace is %d; want 0 or 1", o.trace)
		}
		return runOne(w, c, o.trace == 1)
	}

	selected := make([]*workload, 0, len(workloads))
	if o.workloads == "" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else {
		for _, n := range strings.Split(o.workloads, ",") {
			w := workloadByName(strings.TrimSpace(n))
			if w == nil {
				return fmt.Errorf("unknown workload %q", n)
			}
			selected = append(selected, w)
		}
	}
	if c.traceOut == "" && o.outPath != "" {
		c.traceOut = strings.TrimSuffix(o.outPath, ".json") + ".trace.jsonl"
	}
	return runAll(selected, c, o.outPath)
}
