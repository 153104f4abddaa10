package obs

import (
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Name is a registration name for Counter, Add and SetInspection:
// dotted lower_snake segments ("core.hits", "transport.bytes_sent").
// Dashboards, the inspection endpoint and the benchmark join on these
// exact spellings. An untyped string constant converts implicitly; a
// string variable needs a visible Name(...) conversion, so a name
// built at run time stands out at its call site. The registry checks
// the spelling when it first creates a name and panics on a malformed
// one, as regexp.MustCompile does on a bad pattern.
//
//lint:ignore api the parameter type of Counter, Add and SetInspection; every caller passes an untyped constant
type Name string

// namePattern is the spelling every Name must match.
var namePattern = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$`)

// mustValid panics unless name matches namePattern.
func mustValid(name Name) string {
	if !namePattern.MatchString(string(name)) {
		panic("obs: malformed name " + strconv.Quote(string(name)) + ": want dotted lower_snake, e.g. \"core.hits\"")
	}
	return string(name)
}

// Registry aggregates the process's cache observability: per-operation
// and per-representation hit/miss counters, per-(stage, representation)
// latency histograms, named event counters, and circuit breaker state
// gauges. One registry is typically shared by every instrumented
// subsystem of a stack (cache core, client options, transport, breaker,
// portal) so /debug/wscache serves a single coherent snapshot.
//
// Scoping: a cache given a registry via its config records its Stats
// counters there, so sharing one registry between two *caches* merges
// their Stats; share a registry across the layers of one stack, not
// across independent caches whose Stats must stay separate.
//
// The hot path takes no locks: lookups go through sync.Map (lock-free
// once keys are warm) and updates are sharded or single atomic adds.
// Recording methods are nil-receiver safe no-ops, so optional
// instrumentation needs no call-site guards.
type Registry struct {
	ops         sync.Map // string -> *opCounters
	reps        sync.Map // string -> *repCounters
	stages      sync.Map // stageKey -> *stageRec
	counters    sync.Map // Name as string -> *Counter
	breakers    sync.Map // string -> *breakerGauge
	inspections sync.Map // Name as string -> func() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Or returns r, or a fresh private registry when r is nil — the
// obs analog of clock.Or, so every config defaults its Obs field the
// same way:
//
//	reg := obs.Or(cfg.Obs)
//
// Metrics recorded into a private registry are still counted (core's
// Stats are read from it) but are not served anywhere.
func Or(r *Registry) *Registry {
	if r == nil {
		return NewRegistry()
	}
	return r
}

// opCounters are one operation's counters, the registry-backed
// equivalent of core.OperationStats plus errors.
type opCounters struct {
	Hits   Counter
	Misses Counter
	Stores Counter
	Bypass Counter
	Errors Counter
}

// repCounters are one value representation's counters. A hit is a
// payload of this representation served (copy-out); a miss is a fill
// performed with it (the miss that populated the entry).
type repCounters struct {
	Hits   Counter
	Misses Counter
	Errors Counter
}

// stageKey identifies one latency series.
type stageKey struct {
	stage Stage
	rep   string
}

// stageRec is one stage's latency histogram and error count.
type stageRec struct {
	hist histogram
	errs Counter
}

// breakerGauge holds one endpoint's current breaker state name.
type breakerGauge struct {
	mu    sync.Mutex
	state string
}

// Op returns (creating if needed) the counters for an operation.
// Returns nil when r is nil; callers that may hold a nil registry
// should normalize with Or first.
func (r *Registry) Op(name string) *opCounters {
	if r == nil {
		return nil
	}
	if v, ok := r.ops.Load(name); ok {
		return v.(*opCounters)
	}
	v, _ := r.ops.LoadOrStore(name, &opCounters{})
	return v.(*opCounters)
}

// Rep returns (creating if needed) the counters for a value
// representation. Returns nil when r is nil.
func (r *Registry) Rep(name string) *repCounters {
	if r == nil {
		return nil
	}
	if v, ok := r.reps.Load(name); ok {
		return v.(*repCounters)
	}
	v, _ := r.reps.LoadOrStore(name, &repCounters{})
	return v.(*repCounters)
}

// Counter returns (creating if needed) a named event counter. Returns
// nil when r is nil — and a nil *Counter's Add is itself a no-op, so
// r.Counter("x").Add(1) is safe throughout. Creating a counter under a
// malformed name panics; a lookup of an existing one checks nothing.
func (r *Registry) Counter(name Name) *Counter {
	if r == nil {
		return nil
	}
	if v, ok := r.counters.Load(string(name)); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(mustValid(name), &Counter{})
	return v.(*Counter)
}

// Add increments a named event counter; a no-op on a nil registry.
func (r *Registry) Add(name Name, n int64) {
	r.Counter(name).Add(n)
}

// Stage records one stage observation: d into the (stage,
// representation) histogram, plus an error count when err is non-nil.
// A no-op on a nil registry.
func (r *Registry) Stage(stage Stage, representation string, d time.Duration, err error) {
	if r == nil {
		return
	}
	key := stageKey{stage: stage, rep: representation}
	var rec *stageRec
	if v, ok := r.stages.Load(key); ok {
		rec = v.(*stageRec)
	} else {
		v, _ := r.stages.LoadOrStore(key, &stageRec{})
		rec = v.(*stageRec)
	}
	rec.hist.observe(d)
	if err != nil {
		rec.errs.Add(1)
	}
}

// SetBreaker records an endpoint's current breaker state; a no-op on a
// nil registry. Transitions are rare (they mark outages), so a small
// mutex per gauge is fine.
func (r *Registry) SetBreaker(endpoint, state string) {
	if r == nil {
		return
	}
	var g *breakerGauge
	if v, ok := r.breakers.Load(endpoint); ok {
		g = v.(*breakerGauge)
	} else {
		v, _ := r.breakers.LoadOrStore(endpoint, &breakerGauge{})
		g = v.(*breakerGauge)
	}
	g.mu.Lock()
	g.state = state
	g.mu.Unlock()
}

// SetInspection registers a named live-state callback evaluated at
// snapshot time — how stateful subsystems (e.g. the cache's tier stack)
// expose their current view
// through /debug/wscache without the registry knowing their types. The
// callback must be safe for concurrent use and must return a
// JSON-serializable value; registering the same name again replaces the
// previous callback. A malformed name panics. A no-op on a nil registry.
func (r *Registry) SetInspection(name Name, f func() any) {
	if r == nil || f == nil {
		return
	}
	r.inspections.Store(mustValid(name), f)
}

// Snapshot captures the registry as a JSON-serializable value.
// Concurrent recording may straddle the capture; each individual
// counter and histogram is internally consistent.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Operations:      map[string]opSnapshot{},
		Representations: map[string]repSnapshot{},
		Counters:        map[string]int64{},
		Breakers:        map[string]string{},
	}
	if r == nil {
		return s
	}
	r.ops.Range(func(k, v any) bool {
		c := v.(*opCounters)
		s.Operations[k.(string)] = opSnapshot{
			Hits:     c.Hits.Load(),
			Misses:   c.Misses.Load(),
			Stores:   c.Stores.Load(),
			Bypass:   c.Bypass.Load(),
			Errors:   c.Errors.Load(),
			HitRatio: hitRatio(c.Hits.Load(), c.Misses.Load()),
		}
		return true
	})
	r.reps.Range(func(k, v any) bool {
		c := v.(*repCounters)
		s.Representations[k.(string)] = repSnapshot{
			Hits:     c.Hits.Load(),
			Misses:   c.Misses.Load(),
			Errors:   c.Errors.Load(),
			HitRatio: hitRatio(c.Hits.Load(), c.Misses.Load()),
		}
		return true
	})
	r.stages.Range(func(k, v any) bool {
		key := k.(stageKey)
		rec := v.(*stageRec)
		s.Stages = append(s.Stages, stageSnapshot{
			Stage:          key.stage,
			Representation: key.rep,
			Errors:         rec.errs.Load(),
			Latency:        rec.hist.snapshot(),
		})
		return true
	})
	sort.Slice(s.Stages, func(i, j int) bool {
		if s.Stages[i].Stage != s.Stages[j].Stage {
			return s.Stages[i].Stage < s.Stages[j].Stage
		}
		return s.Stages[i].Representation < s.Stages[j].Representation
	})
	r.counters.Range(func(k, v any) bool {
		s.Counters[k.(string)] = v.(*Counter).Load()
		return true
	})
	r.breakers.Range(func(k, v any) bool {
		g := v.(*breakerGauge)
		g.mu.Lock()
		s.Breakers[k.(string)] = g.state
		g.mu.Unlock()
		return true
	})
	r.inspections.Range(func(k, v any) bool {
		if s.Inspections == nil {
			s.Inspections = map[string]any{}
		}
		s.Inspections[k.(string)] = v.(func() any)()
		return true
	})
	return s
}

// hitRatio returns hits/(hits+misses), or 0.
func hitRatio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Snapshot is the JSON shape served at /debug/wscache.
type Snapshot struct {
	Operations      map[string]opSnapshot  `json:"operations"`
	Representations map[string]repSnapshot `json:"representations"`
	Stages          []stageSnapshot        `json:"stages,omitempty"`
	Counters        map[string]int64       `json:"counters"`
	Breakers        map[string]string      `json:"breakers"`
	// Inspections holds the live state of registered subsystems
	// (SetInspection), keyed by inspection name.
	Inspections map[string]any `json:"inspections,omitempty"`
}

// opSnapshot is one operation's captured counters.
type opSnapshot struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	Stores   int64   `json:"stores"`
	Bypass   int64   `json:"bypass"`
	Errors   int64   `json:"errors"`
	HitRatio float64 `json:"hit_ratio"`
}

// repSnapshot is one value representation's captured counters.
type repSnapshot struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	Errors   int64   `json:"errors"`
	HitRatio float64 `json:"hit_ratio"`
}

// stageSnapshot is one (stage, representation) latency series.
type stageSnapshot struct {
	Stage          Stage             `json:"stage"`
	Representation string            `json:"representation,omitempty"`
	Errors         int64             `json:"errors"`
	Latency        histogramSnapshot `json:"latency"`
}
