// Package obs is the runtime observability layer: stage-level metrics
// and trace hooks for the caching client middleware. The paper's whole
// argument is quantitative — Tables 8/9 and Figure 7 compare
// per-representation hit costs — and this package is what makes those
// costs visible in a live process instead of only under go test -bench:
// where a hit or miss spends its time (key generation, store encode,
// copy-out, SAX replay, network invoke), per operation and per
// representation.
//
// The package is dependency-free and clock-free by design: it never
// reads the wall clock. Durations are measured by the instrumented
// packages with their injected clocks (internal/clock), so the
// clockinject analyzer's discipline is preserved, and recorded here as
// plain values.
//
// Three layers:
//
//   - Counter and Histogram are the lock-free primitives: a Counter is
//     sharded across cache lines so concurrent writers do not serialize;
//     a Histogram is a fixed set of power-of-two latency buckets updated
//     with single atomic adds.
//   - Registry aggregates them: per-operation counters, per-
//     representation counters, per-(stage, representation) latency
//     histograms, named event counters, and breaker state gauges. Every
//     recording method is safe on a nil *Registry (a no-op), and Or
//     mirrors clock.Or so configs default uniformly.
//   - Tracer is the push-side hook: an optional callback invoked per
//     recorded stage, for log/trace integration. A nil Tracer costs
//     nothing — instrumented packages skip even the clock reads when
//     neither a caller-supplied Registry nor a Tracer is present.
package obs

import "time"

// Stage names one step of the invocation pipeline. The taxonomy covers
// the client cache (keygen through copy-out), the handler chain and
// pivot, the transport, and the server-side response cache; DESIGN.md
// §5c tabulates where each stage is recorded.
type Stage string

const (
	// StageKeyGen is cache key generation (representation = key
	// strategy name).
	StageKeyGen Stage = "keygen"
	// StageLookup is the cache table lookup including, on a hit, the
	// copy-out.
	StageLookup Stage = "lookup"
	// StageCopyOut is ValueStore.Load: materializing a stored payload
	// into an application object (representation = store name).
	StageCopyOut Stage = "copyout"
	// StageCopyIn is ValueStore.Store: encoding a response into its
	// cache representation on the fill path (representation = store
	// name).
	StageCopyIn Stage = "copyin"
	// StageInvoke is the backend invocation a cache miss pays (the rest
	// of the handler chain plus the pivot).
	StageInvoke Stage = "invoke"
	// StageCoalesceWait is the time a coalesced miss follower spends
	// waiting on the flight leader.
	StageCoalesceWait Stage = "coalesce-wait"
	// StageHandler is one handler of the client chain, inclusive of
	// everything below it (representation = handler name; the outermost
	// handler's duration approximates the whole invocation).
	StageHandler Stage = "handler"
	// StageSerialize is request encoding in the pivot.
	StageSerialize Stage = "serialize"
	// StageSend is the transport exchange as timed by the pivot or the
	// transport itself.
	StageSend Stage = "send"
	// StageParse is response parsing plus deserialization in the pivot.
	StageParse Stage = "parse"
	// StageBackoff is a retry backoff sleep (duration = the scheduled
	// delay).
	StageBackoff Stage = "backoff"
	// StageBreaker is a circuit breaker state transition
	// (representation = the new state, duration zero).
	StageBreaker Stage = "breaker"
	// StageBackend is one portal back-end section render.
	StageBackend Stage = "backend"
	// StageServerLookup is the server-side response cache lookup.
	StageServerLookup Stage = "server-lookup"
	// StageServerStore is the server-side response cache fill.
	StageServerStore Stage = "server-store"
	// StageServerStream is a server-side response cache hit replayed
	// straight into the response writer via the body store's streaming
	// fast path (no intermediate []byte materialization).
	StageServerStream Stage = "server-stream"
	// StageTemplateBuild is a differential-serialization fill that had
	// to serialize in full and record a new splice template (first fill
	// of a response shape).
	StageTemplateBuild Stage = "template-build"
	// StageTemplateSplice is a differential-serialization fill that
	// reused an interned template and paid only text-value escaping —
	// the splice wins Figure 7 targets.
	StageTemplateSplice Stage = "template-splice"
	// StageTierGet is one remote-tier lookup on the miss path, round
	// trip included (representation = tier name).
	StageTierGet Stage = "tier-get"
	// StageTierPut is one remote-tier fill: the wire encoding plus the
	// store round trip (representation = chosen wire representation).
	StageTierPut Stage = "tier-put"
)

// Tracer receives one callback per recorded stage: op is the operation
// (or endpoint, for transport and breaker stages), representation the
// stage's representation/strategy name when one applies (empty
// otherwise), d the measured duration (zero for pure events such as
// breaker transitions), and err the stage's outcome.
//
// Implementations must be safe for concurrent use and should return
// quickly — they run inline on the invocation path. A nil Tracer is
// always legal in configs and costs nothing.
type Tracer interface {
	OnStage(op string, stage Stage, representation string, d time.Duration, err error)
}

// TracerFunc adapts a function to Tracer.
type TracerFunc func(op string, stage Stage, representation string, d time.Duration, err error)

var _ Tracer = (TracerFunc)(nil)

// OnStage implements Tracer.
func (f TracerFunc) OnStage(op string, stage Stage, representation string, d time.Duration, err error) {
	f(op, stage, representation, d, err)
}
