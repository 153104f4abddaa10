package rep

import (
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/soap"
	"repro/internal/typemap"
)

// sectionSix is the paper's Section 6 "optimal configuration" as an
// order over registry names: the first entry whose applicability
// predicate holds is the classified representation.
//
//	raw      stream-accepting consumer → raw response replay
//	ref      immutable types (and nil) → pass by reference
//	clone    Cloner implementations    → copy by clone
//	reflect  bean-type object graphs   → copy by reflection
//	gob      gob-encodable graphs      → gob serialization
//	sax      anything with a message   → SAX event sequence
//	xml      anything with response XML → the XML message
//
// Raw replay leads: it predates the Section 6 list, which only
// considered object results, and for a consumer that relays bytes it
// beats every object representation (no copy-out at all). The paper's
// list omits clone (its WSDL compiler did not yet emit clone methods)
// but argues it should; ours does, so clone slots in right after
// immutability. The wire counterpart is wirePreference (wire.go).
var sectionSix = []string{"raw", "ref", "clone", "reflect", "gob", "sax", "xml"}

// Display names of the two selection policies. They are obs labels
// (copy-in/copy-out stage series, the rep_selector inspection), so they
// stay byte-identical across refactors.
const (
	autoName     = "Auto (optimal configuration)"
	adaptiveName = "Adaptive (cost model)"
)

// Sampling parameters of the adaptive policy. Constants, not options:
// no caller outside this package's tests ever set them.
const (
	// defaultProbeEvery: one in this many Store calls per class runs a
	// probe round; the others pay one atomic increment.
	defaultProbeEvery = 8
	// defaultSampleLoadEvery: one in this many Load calls per class is
	// timed, keeping the hit path inside the obs layer's 5% budget.
	defaultSampleLoadEvery = 16
	// defaultMinSamples: probe samples a representation needs before
	// the cost model may override the static order.
	defaultMinSamples = 3
	// ewmaAlpha is the smoothing factor applied to new samples.
	ewmaAlpha = 0.25
	// defaultByteBudget scores payload size when the caller names none.
	defaultByteBudget = 1 << 20
)

// SelectorConfig configures an adaptive Selector. Registry is required;
// everything else defaults.
type SelectorConfig struct {
	// Registry supplies the candidate representations and their
	// applicability predicates. Required.
	Registry *Registry

	// ByteBudget is the byte budget the cost model scores payload size
	// against — per-shard capacity when the selector serves a core
	// cache (core wires MaxBytes/shards in), process-wide otherwise.
	// Larger payloads are charged a pro-rata share of a refill.
	// Default 1 MiB.
	ByteBudget int64

	// Clock injects time for probe measurements (clockinject
	// discipline); nil means the system clock.
	Clock clock.Func

	// Obs, when non-nil, receives StageRepProbe latencies per candidate
	// and serves the live decision table at /debug/wscache under the
	// "rep_selector" inspection key.
	Obs *obs.Registry
}

// Selector is the one representation-selection mechanism (DESIGN.md
// §5e): a ValueStore that decides, per fill, which registered
// representation holds the result — for the in-process L1 (Store,
// Load) and for byte-oriented remote tiers (StoreWire, LoadWire).
//
// Its static knowledge is two orders over registry names, sectionSix
// for L1 and wirePreference for tiers; whether a representation can
// hold a result is the registry's ValueSpec.Applicable and nothing
// else. One walk serves every decision: the first applicable
// candidate in the order whose Store accepts the concrete value wins.
//
// With sampling off that is the whole policy — "auto", the paper's
// static Section 6 classifier. With sampling on — "adaptive" — the same
// type closes the loop the paper leaves open: it records Store/Load
// latency and payload size per (operation, result type) class and
// candidate via EWMA samples gathered on 1-in-N probe fills, scores
// each candidate by expected hit cost under the byte budget, and puts
// the measured best ahead of the static order. Until a class has
// enough probe rounds — and whenever the measured choice declines a
// concrete value — the static order decides.
type Selector struct {
	reg *Registry
	// l1 and wire are the two static orders resolved against the
	// registry at construction; candidates is every registered value
	// spec in registration order (= Table 3 order for ties), what a
	// probe round visits.
	l1, wire, candidates []*ValueSpec

	// adaptive turns sampling on. Everything below is unused (and the
	// class table stays empty) on a static selector.
	adaptive        bool
	probeEvery      int64
	sampleLoadEvery int64
	minSamples      int64
	byteBudget      float64
	now             clock.Func
	obs             *obs.Registry
	classes         sync.Map // classKey -> *classState

	// netMu guards the network cost model StoreWire charges payload
	// size against: EWMAs of remote round trip latency and payload
	// size, fed by ObserveNet. Selector-wide, not per class — the wire
	// is shared by every operation.
	netMu    sync.Mutex
	netNS    ewma
	netBytes ewma
}

var _ ValueStore = (*Selector)(nil)

// NewStaticSelector returns the static ("auto") selector over reg: the
// two orders decide, nothing is measured.
func NewStaticSelector(reg *Registry) *Selector {
	return &Selector{
		reg:        reg,
		l1:         reg.ordered(sectionSix),
		wire:       reg.WireSpecs(),
		candidates: reg.Values(),
	}
}

// NewAutoStore returns the static selector over a fresh registry of the
// built-in representations bound to reg and codec.
func NewAutoStore(reg *typemap.Registry, codec *soap.Codec) *Selector {
	return NewStaticSelector(NewRegistry(reg, codec))
}

// NewAdaptiveSelector returns the measured-cost ("adaptive") selector
// over cfg.Registry's representations.
func NewAdaptiveSelector(cfg SelectorConfig) (*Selector, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("rep: selector: SelectorConfig.Registry is required")
	}
	if cfg.ByteBudget <= 0 {
		cfg.ByteBudget = defaultByteBudget
	}
	s := NewStaticSelector(cfg.Registry)
	s.adaptive = true
	s.probeEvery = defaultProbeEvery
	s.sampleLoadEvery = defaultSampleLoadEvery
	s.minSamples = defaultMinSamples
	s.byteBudget = float64(cfg.ByteBudget)
	s.now = clock.Or(cfg.Clock)
	s.obs = cfg.Obs
	cfg.Obs.SetInspection("rep_selector", func() any { return s.DecisionTable() })
	return s, nil
}

// Name implements ValueStore.
func (s *Selector) Name() string {
	if s.adaptive {
		return adaptiveName
	}
	return autoName
}

// walk is the one selection loop: the first candidate in order that is
// applicable to the invocation and whose Store accepts the concrete
// value wins. The L1 walk (wire false) continues only past
// ErrNotApplicable — applicability is a type-level prediction the
// concrete value may refute, e.g. a type flagged gob-safe whose value
// smuggles in an unencodable interface member — and aborts on any
// other error, wrapped with the representation's name. The wire walk
// also flattens the payload (the returned payload is the []byte) and
// keeps going past any error, reporting the first: a tier write is
// best effort, so a later candidate that can hold the result beats
// giving up on the first one's failure.
//
// Skipping an inapplicable candidate is the same as calling it only
// because every representation in sectionSix returns ErrNotApplicable
// whenever its predicate is false (DESIGN.md §5e lists the seven).
func (s *Selector) walk(order []*ValueSpec, ictx *client.Context, wire bool) (*ValueSpec, any, int, error) {
	var first error
	for _, spec := range order {
		if !spec.Applicable(ictx) {
			continue
		}
		payload, size, err := spec.Store.Store(ictx)
		if err == nil && wire {
			var data []byte
			data, err = spec.Store.(WireStore).EncodeWire(payload)
			payload, size = data, len(data)
		}
		if err == nil {
			return spec, payload, size, nil
		}
		if !wire && !errors.Is(err, ErrNotApplicable) {
			return nil, nil, 0, fmt.Errorf("rep: selector: %s: %w", spec.Store.Name(), err)
		}
		if first == nil {
			first = err
		}
	}
	if first == nil {
		first = ErrNotApplicable
	}
	return nil, nil, 0, fmt.Errorf("rep: selector: no applicable representation: %w", first)
}

// Classify reports which representation the static order picks for the
// invocation — the first applicable entry of the Section 6 list, ""
// when none applies — for diagnostics and the representation example
// binary. Store may land on a later entry if that candidate declines
// the concrete value.
func (s *Selector) Classify(ictx *client.Context) string {
	for _, spec := range s.l1 {
		if spec.Applicable(ictx) {
			return spec.Store.Name()
		}
	}
	return ""
}

// Store implements ValueStore. The payload is wrapped so Load knows
// which representation produced it.
//
// With sampling on, one call in probeEvery per class runs a probe
// round — every applicable candidate's Store plus one Load, timed,
// folded into the class's cost model, and the decision re-scored; the
// winner's payload from the round is what gets cached, so probing
// never doubles the fill work for the chosen representation. Other
// calls try the measured choice first, when there is one. Whatever
// that choice answers, the static order is the fallback.
func (s *Selector) Store(ictx *client.Context) (any, int, error) {
	var st *classState
	if s.adaptive {
		st = s.classFor(ictx)
		if n := st.stores.Add(1); n == 1 || n%s.probeEvery == 0 {
			if payload, size, ok := s.probe(st, ictx); ok {
				//lint:ignore aliascopy probe's payload comes from a registered representation's Store, which already enforces the copy discipline
				return payload, size, nil
			}
			// The round produced nothing; the walk's error is the
			// authoritative one.
		}
		if chosen := st.chosen.Load(); chosen != nil {
			if spec, payload, size, err := s.walk([]*ValueSpec{chosen}, ictx, false); err == nil {
				//lint:ignore aliascopy the payload comes from a registered representation's Store, which already enforces the copy discipline; the wrapper only routes Load back to it
				return newSelPayload(st, spec, payload), size, nil
			}
		}
	}
	spec, payload, size, err := s.walk(s.l1, ictx, false)
	if err != nil {
		return nil, 0, err
	}
	//lint:ignore aliascopy the payload comes from a registered representation's Store, which already enforces the copy discipline; the wrapper only routes Load back to it
	return newSelPayload(st, spec, payload), size, nil
}

// Load implements ValueStore: one type assertion and the producing
// representation's Load. With sampling on, each call also pays one
// atomic increment, and one in sampleLoadEvery per class is timed and
// folded into that representation's load-cost estimate.
//
//lint:hotpath
func (s *Selector) Load(payload any) (any, error) {
	sp, ok := payload.(*selPayload)
	if !ok {
		return nil, errSelPayload
	}
	if sp.model != nil && sp.state.loads.Add(1)%s.sampleLoadEvery == 0 {
		//lint:ignore aliascopy sampleLoad returns what the producing representation's Load returned, timed; that Load enforces the copy discipline
		return s.sampleLoad(sp)
	}
	return sp.store.Load(sp.payload)
}

var errSelPayload = errors.New("rep: selector: payload was not stored by a selector")

// sampleLoad is the 1-in-N timed Load.
func (s *Selector) sampleLoad(sp *selPayload) (any, error) {
	v, d, err := s.timedLoad(sp.store, sp.payload)
	if err == nil {
		sp.state.mu.Lock()
		sp.model.loadNS.observe(float64(d.Nanoseconds()))
		sp.state.mu.Unlock()
	}
	return v, err
}

// timedLoad loads a payload and times what a hit of it pays. For the
// streaming representations Load is only a type assertion and the cost
// that differs is paid when the consumer replays the result (a raw
// replay is one write, a template replay a splice), so a Streamed
// result is replayed once into a discard sink inside the timed span.
func (s *Selector) timedLoad(store ValueStore, payload any) (any, time.Duration, error) {
	start := s.now()
	v, err := store.Load(payload)
	if st, ok := v.(Streamed); ok && err == nil {
		_, err = st.WriteTo(io.Discard)
	}
	return v, s.now().Sub(start), err
}

// selPayload routes a cached payload back to the representation that
// produced it and, with sampling on, to the class state and cost model
// its sampled load timings feed (both nil on a static selector).
type selPayload struct {
	store   ValueStore
	payload any
	state   *classState
	model   *costModel
}

func newSelPayload(st *classState, spec *ValueSpec, payload any) *selPayload {
	sp := &selPayload{store: spec.Store, payload: payload}
	if st != nil {
		sp.state, sp.model = st, st.model(spec.Name)
	}
	return sp
}

// --- Wire side -------------------------------------------------------
//
// The same selector picks the wire representation for remote tiers,
// with one substitution in the score. The L1 score charges payload
// size against the byte budget (capacity pressure); the wire score
// charges it against the measured network cost per byte — a large
// payload costs transfer time on every remote hit, which is exactly
// what the EWMA fed by ObserveNet estimates.

// StoreWire encodes the invocation's result with the chosen
// wire-capable representation, returning the representation's short
// registry name (what tier.Entry.Rep carries) and the wire bytes. A
// class with warm measurements ranks the candidates by load latency
// plus transfer cost; otherwise wirePreference decides. Either way the
// chosen candidate must actually produce bytes for this concrete
// value, so the walk falls through on errors.
func (s *Selector) StoreWire(ictx *client.Context) (rep string, data []byte, size int, err error) {
	order := s.wire
	if s.adaptive {
		order = s.rankWire(s.classFor(ictx))
	}
	spec, payload, size, err := s.walk(order, ictx, true)
	if err != nil {
		return "", nil, 0, err
	}
	return spec.Name, payload.([]byte), size, nil
}

// rankWire returns the wire order for a class: candidates with warm
// models first, cheapest wire score first, the rest in static order
// behind them. The list is six entries; an insertion sort keeps the
// cold ones stable.
func (s *Selector) rankWire(st *classState) []*ValueSpec {
	perByte := s.netPerByte()
	scores := make([]float64, len(s.wire))
	warm := false
	st.mu.Lock()
	for i, spec := range s.wire {
		scores[i] = math.Inf(1)
		if m, ok := st.models[spec.Name]; ok && m.samples >= s.minSamples {
			scores[i] = m.loadNS.val + m.bytes.val*perByte
			warm = true
		}
	}
	st.mu.Unlock()
	if !warm {
		return s.wire
	}
	order := append([]*ValueSpec(nil), s.wire...)
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && scores[j] < scores[j-1]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
			scores[j], scores[j-1] = scores[j-1], scores[j]
		}
	}
	return order
}

// LoadWire reconstructs a payload from wire bytes produced under rep
// (possibly by another process), returning the payload and the store
// that materializes it, ready for an L1 fill.
func (s *Selector) LoadWire(rep string, data []byte) (any, ValueStore, error) {
	spec, err := s.reg.ValueSpecFor(rep)
	if err != nil {
		return nil, nil, err
	}
	ws, ok := spec.Store.(WireStore)
	if !ok {
		return nil, nil, fmt.Errorf("rep: %q is not a wire-capable representation", rep)
	}
	payload, err := ws.DecodeWire(data)
	if err != nil {
		return nil, nil, err
	}
	return payload, spec.Store, nil
}

// ObserveNet folds one remote round trip (latency, payload bytes) into
// the network cost model. A static selector models nothing.
func (s *Selector) ObserveNet(d time.Duration, bytes int) {
	if !s.adaptive {
		return
	}
	s.netMu.Lock()
	s.netNS.observe(float64(d.Nanoseconds()))
	s.netBytes.observe(float64(bytes))
	s.netMu.Unlock()
}

// netPerByte returns the estimated network nanoseconds per payload
// byte, 0 until ObserveNet has samples.
func (s *Selector) netPerByte() float64 {
	s.netMu.Lock()
	defer s.netMu.Unlock()
	if !s.netNS.set || s.netBytes.val < 1 {
		return 0
	}
	return s.netNS.val / s.netBytes.val
}

// --- Cost model ------------------------------------------------------

// classKey identifies one decision class: an operation and the dynamic
// result type it returned.
type classKey struct {
	op  string
	typ reflect.Type
}

// classState is one class's cost model and current decision.
type classState struct {
	stores atomic.Int64 // Store calls, gates probing
	loads  atomic.Int64 // Load calls, gates sampling
	// chosen is the measured-cost decision; nil until the model has
	// minSamples for some candidate, whereupon the static order stops
	// deciding (but keeps serving as the Store-failure fallback).
	chosen atomic.Pointer[ValueSpec]

	mu     sync.Mutex
	models map[string]*costModel // candidate name -> model
}

// costModel is the EWMA cost estimate for one (class, representation).
type costModel struct {
	samples int64
	storeNS ewma
	loadNS  ewma
	bytes   ewma
}

// ewma is an exponentially weighted moving average.
type ewma struct {
	val float64
	set bool
}

// observe folds a sample in.
func (e *ewma) observe(v float64) {
	if !e.set {
		e.val, e.set = v, true
		return
	}
	e.val += ewmaAlpha * (v - e.val)
}

// classFor returns (creating if needed) the decision class for an
// invocation.
func (s *Selector) classFor(ictx *client.Context) *classState {
	key := classKey{op: ictx.Operation, typ: reflect.TypeOf(ictx.Result)}
	if v, ok := s.classes.Load(key); ok {
		return v.(*classState)
	}
	v, _ := s.classes.LoadOrStore(key, &classState{models: make(map[string]*costModel)})
	return v.(*classState)
}

// model returns (creating if needed) the cost model for one candidate
// within a class.
func (st *classState) model(name string) *costModel {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.modelLocked(name)
}

// modelLocked is model for callers already holding st.mu.
func (st *classState) modelLocked(name string) *costModel {
	m, ok := st.models[name]
	if !ok {
		m = &costModel{}
		st.models[name] = m
	}
	return m
}

// probe runs one probe round: every applicable candidate stores the
// invocation and loads it back once, timed; samples are folded into
// the class's models and the decision re-scored. Unlike walk it must
// visit all candidates, and a failing one is skipped whatever its
// error. The winner's payload is returned for caching (so the round
// costs extra candidate encodes, never an extra winner encode). ok is
// false when no candidate produced a payload.
func (s *Selector) probe(st *classState, ictx *client.Context) (any, int, bool) {
	type outcome struct {
		spec    *ValueSpec
		payload any
		size    int
	}
	var produced []outcome
	for _, spec := range s.candidates {
		if !spec.Applicable(ictx) {
			continue
		}
		start := s.now()
		payload, size, err := spec.Store.Store(ictx)
		storeD := s.now().Sub(start)
		if err != nil {
			// Applicability said yes but the concrete value disagreed;
			// record the failure so the model never picks this
			// candidate, and move on.
			s.obs.Stage(obs.StageRepProbe, spec.Stage, storeD, err)
			continue
		}
		_, loadD, lerr := s.timedLoad(spec.Store, payload)
		s.obs.Stage(obs.StageRepProbe, spec.Stage, storeD+loadD, lerr)
		if lerr != nil {
			continue
		}
		st.mu.Lock()
		m := st.modelLocked(spec.Name)
		m.samples++
		m.storeNS.observe(float64(storeD.Nanoseconds()))
		m.loadNS.observe(float64(loadD.Nanoseconds()))
		m.bytes.observe(float64(size))
		st.mu.Unlock()
		produced = append(produced, outcome{spec: spec, payload: payload, size: size})
	}
	if len(produced) == 0 {
		return nil, 0, false
	}
	best := s.decide(st)
	if best == nil {
		// The published decision is still cold (minSamples not reached),
		// but this round measured every produced candidate: the entry
		// being filled may live for a long time, so pick the
		// currently-cheapest rather than defaulting to Table 3 order
		// (which leads with the most expensive hit, the XML message).
		st.mu.Lock()
		bestScore := 0.0
		for _, o := range produced {
			if score := s.score(st.models[o.spec.Name]); best == nil || score < bestScore {
				best, bestScore = o.spec, score
			}
		}
		st.mu.Unlock()
	}
	// The scored best may not have been producible this round (e.g. its
	// probe failed); then cache the first produced payload.
	win := produced[0]
	for _, o := range produced {
		if o.spec == best {
			win = o
			break
		}
	}
	return newSelPayload(st, win.spec, win.payload), win.size, true
}

// decide re-scores the class and publishes the measured-cost choice
// once some candidate has minSamples. It returns the published choice
// (nil while the model is cold).
func (s *Selector) decide(st *classState) *ValueSpec {
	st.mu.Lock()
	var best *ValueSpec
	bestScore := 0.0
	for _, spec := range s.candidates {
		m, ok := st.models[spec.Name]
		if !ok || m.samples < s.minSamples {
			continue
		}
		if score := s.score(m); best == nil || score < bestScore {
			best, bestScore = spec, score
		}
	}
	st.mu.Unlock()
	if best != nil {
		st.chosen.Store(best)
	}
	return st.chosen.Load()
}

// score is a model's expected cost of serving one hit: the measured
// load (copy-out) latency, plus a capacity charge — the payload's
// pro-rata share of the byte budget times the cost of refilling it
// (its store latency). A representation whose payloads crowd out
// budget pays for the evictions it causes; a compact one gets credit
// even when its copy-out is a shade slower.
func (s *Selector) score(m *costModel) float64 {
	return m.loadNS.val + m.bytes.val/s.byteBudget*m.storeNS.val
}

// Decision is one row of the selector's live decision table.
type Decision struct {
	Operation  string          `json:"operation"`
	ResultType string          `json:"result_type"`
	Chosen     string          `json:"chosen"`
	Source     string          `json:"source"` // "measured" or "prior"
	Stores     int64           `json:"stores"`
	Costs      []CandidateCost `json:"costs,omitempty"`
}

// CandidateCost is one candidate's current cost estimate within a
// decision class.
type CandidateCost struct {
	Rep     string  `json:"rep"`
	Samples int64   `json:"samples"`
	StoreNS float64 `json:"store_ns"`
	LoadNS  float64 `json:"load_ns"`
	Bytes   float64 `json:"bytes"`
	Score   float64 `json:"score"`
}

// DecisionTable returns the selector's current per-class decisions and
// cost estimates, sorted by operation then result type (empty on a
// static selector, which keeps no classes). It is what /debug/wscache
// serves under inspections.rep_selector and what the representations
// example prints.
func (s *Selector) DecisionTable() []Decision {
	var out []Decision
	s.classes.Range(func(k, v any) bool {
		key := k.(classKey)
		st := v.(*classState)
		d := Decision{
			Operation:  key.op,
			ResultType: typeName(key.typ),
			Stores:     st.stores.Load(),
		}
		if spec := st.chosen.Load(); spec != nil {
			d.Chosen, d.Source = spec.Store.Name(), "measured"
		} else {
			d.Chosen, d.Source = autoName, "prior"
		}
		st.mu.Lock()
		for name, m := range st.models {
			spec, err := s.reg.ValueSpecFor(name)
			repName := name
			if err == nil {
				repName = spec.Store.Name()
			}
			d.Costs = append(d.Costs, CandidateCost{
				Rep:     repName,
				Samples: m.samples,
				StoreNS: m.storeNS.val,
				LoadNS:  m.loadNS.val,
				Bytes:   m.bytes.val,
				Score:   s.score(m),
			})
		}
		st.mu.Unlock()
		sort.Slice(d.Costs, func(i, j int) bool { return d.Costs[i].Score < d.Costs[j].Score })
		out = append(out, d)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Operation != out[j].Operation {
			return out[i].Operation < out[j].Operation
		}
		return out[i].ResultType < out[j].ResultType
	})
	return out
}

// typeName renders a class's result type for the decision table.
func typeName(t reflect.Type) string {
	if t == nil {
		return "<nil>"
	}
	return t.String()
}
