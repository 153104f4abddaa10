// Package obs is the runtime observability layer: stage-level metrics
// for the caching client middleware. The paper's whole
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
// Two layers:
//
//   - Counter and histogram are the lock-free primitives: a Counter is
//     sharded across cache lines so concurrent writers do not serialize;
//     a histogram is a fixed set of power-of-two latency buckets updated
//     with single atomic adds.
//   - Registry aggregates them: per-operation counters, per-
//     representation counters, per-(stage, representation) latency
//     histograms, named event counters, and breaker state gauges. Every
//     recording method is safe on a nil *Registry (a no-op), and Or
//     mirrors clock.Or so configs default uniformly. Instrumented
//     packages skip even the clock reads when no caller-supplied
//     Registry is present, so the default path costs nothing.
package obs

// Stage names one step of the invocation pipeline. The taxonomy covers
// the client cache (keygen through copy-out), the handler chain and
// pivot, the transport, and the server-side response cache; DESIGN.md
// §5c tabulates where each stage is recorded.
//
//lint:ignore api core's TestCacheRecordsIntoRegistry lists the stages it expects
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
	// StageTierGet is one remote-tier lookup on the miss path, round
	// trip included (representation = tier name).
	StageTierGet Stage = "tier-get"
	// StageTierPut is one remote-tier fill: the wire encoding plus the
	// store round trip (representation = chosen wire representation).
	StageTierPut Stage = "tier-put"
)
