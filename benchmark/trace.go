package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/invalidate"
	"repro/internal/rep"
	"repro/internal/tier"
	"repro/internal/transport"
)

// Tracing is done from outside the program: the benchmark wraps the
// seams the public API already exposes (client.Handler, rep.KeyGenerator,
// tier.Tier on both sides of the socket, transport.Transport, the
// origin's http.Handler, invalidate.OnBump) and records one span per
// crossing. Nothing under internal/ knows it is being traced.

// benchEpoch is the zero of every timestamp the benchmark takes;
// nanos is the one monotonic clock read per operation.
var benchEpoch = time.Now()

func nanos() int64 { return int64(time.Since(benchEpoch)) }

type spanName uint8

const (
	spOp         spanName = iota // one whole operation, t(i-1)..t(i) of the closed loop
	spCore                       // core.Cache.HandleInvoke
	spKeygen                     // rep.KeyGenerator / KeyAppender
	spRemoteGet                  // cluster.Remote.Get, client side
	spRemotePut                  // cluster.Remote.Put, client side
	spRemoteBump                 // cluster.Remote's OnBump push
	spDaemonGet                  // the daemon's tier.Get
	spDaemonPut                  // the daemon's tier.Put
	spPivot                      // client pivot: encode, send, parse, decode
	spTransport                  // transport.Transport.Send
	spServe                      // origin http.Handler
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "core", "rep.keygen", "cluster.remote.get", "cluster.remote.put",
	"cluster.remote.bump", "wscached.tier.get", "wscached.tier.put",
	"client.pivot", "transport.roundtrip", "server.serve",
}

// Span is one timed crossing of a layer boundary.
type Span struct {
	ID     uint32 // unique per tracer, never 0
	Parent uint32 // 0 for a root
	Req    uint32 // request number within Client
	Client int8   // closed-loop client that issued the request, -1 if unknown
	Name   spanName
	Start  int64 // ns since benchEpoch
	End    int64
	Key    uint64 // low word of the tier key on cluster spans, joins the two sides of the socket
}

// traceRingSize spans are kept; older ones are overwritten. 2^17 spans
// hold the last ~40k requests of the fastest workload, enough for a
// median, in 5 MiB.
const traceRingSize = 1 << 17

// Tracer is the preallocated span ring. Writers reserve an ID with one
// atomic add and own that slot; nothing is read until every writer has
// stopped.
type Tracer struct {
	next atomic.Uint32
	ring []Span
}

func newTracer() *Tracer { return &Tracer{ring: make([]Span, traceRingSize)} }

func (t *Tracer) put(s Span) { t.ring[s.ID&(traceRingSize-1)] = s }

// clientTrace is one closed-loop client's span stack. The client is
// sequential, so every span opened on its goroutine between two root
// spans belongs to the current request.
type clientTrace struct {
	t      *Tracer
	client int8
	req    uint32
	stack  [8]uint32
	depth  int
}

type traceCtxKey struct{}

func withClientTrace(ctx context.Context, ct *clientTrace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, ct)
}

func clientTraceOf(ctx context.Context) *clientTrace {
	ct, _ := ctx.Value(traceCtxKey{}).(*clientTrace)
	return ct
}

// beginRoot opens the next request's root span.
func (ct *clientTrace) beginRoot() uint32 {
	ct.req++
	id := ct.t.next.Add(1)
	ct.stack[0] = id
	ct.depth = 1
	return id
}

// endRoot closes the root span over the runner's own timestamps, so
// the root equals the latency sample exactly.
func (ct *clientTrace) endRoot(id uint32, start, end int64) {
	ct.depth = 0
	ct.t.put(Span{ID: id, Req: ct.req, Client: ct.client, Name: spOp, Start: start, End: end})
}

func (ct *clientTrace) begin() (id uint32, start int64) {
	id = ct.t.next.Add(1)
	ct.stack[ct.depth] = id
	ct.depth++
	return id, nanos()
}

func (ct *clientTrace) end(name spanName, id uint32, start int64, key uint64) {
	end := nanos()
	ct.depth--
	ct.t.put(Span{ID: id, Parent: ct.stack[ct.depth-1], Req: ct.req, Client: ct.client,
		Name: name, Start: start, End: end, Key: key})
}

// tracedHandler times everything below it in the handler chain: placed
// before the cache it measures core.Cache, placed after it the pivot.
type tracedHandler struct{ name spanName }

func (h tracedHandler) HandleInvoke(ictx *client.Context, next client.Invoker) error {
	ct := clientTraceOf(ictx.Ctx)
	if ct == nil {
		return next(ictx)
	}
	id, start := ct.begin()
	err := next(ictx)
	ct.end(h.name, id, start, 0)
	return err
}

// tracedKey times key generation through both entry points the cache
// uses.
type tracedKey struct{ inner rep.StringKey }

func (k tracedKey) Name() string { return k.inner.Name() }

func (k tracedKey) Key(ictx *client.Context) (string, error) {
	ct := clientTraceOf(ictx.Ctx)
	if ct == nil {
		return k.inner.Key(ictx)
	}
	id, start := ct.begin()
	s, err := k.inner.Key(ictx)
	ct.end(spKeygen, id, start, 0)
	return s, err
}

func (k tracedKey) AppendKey(dst []byte, ictx *client.Context) ([]byte, error) {
	ct := clientTraceOf(ictx.Ctx)
	if ct == nil {
		return k.inner.AppendKey(dst, ictx)
	}
	id, start := ct.begin()
	b, err := k.inner.AppendKey(dst, ictx)
	ct.end(spKeygen, id, start, 0)
	return b, err
}

// tracedTier times Get and Put. On the client side the caller's
// clientTrace rides in ctx; on the daemon side there is none (the wire
// protocol carries no request id), so spans are recorded parentless and
// joined to their client-side span by tier key afterwards.
type tracedTier struct {
	tier.Tier
	t        *Tracer
	get, put spanName
}

func (w *tracedTier) Get(ctx context.Context, key tier.Key) (tier.Entry, bool, error) {
	if ct := clientTraceOf(ctx); ct != nil {
		id, start := ct.begin()
		e, ok, err := w.Tier.Get(ctx, key)
		ct.end(w.get, id, start, key.Lo)
		return e, ok, err
	}
	id, start := w.t.next.Add(1), nanos()
	e, ok, err := w.Tier.Get(ctx, key)
	w.t.put(Span{ID: id, Client: -1, Name: w.get, Start: start, End: nanos(), Key: key.Lo})
	return e, ok, err
}

func (w *tracedTier) Put(ctx context.Context, key tier.Key, e tier.Entry) error {
	if ct := clientTraceOf(ctx); ct != nil {
		id, start := ct.begin()
		err := w.Tier.Put(ctx, key, e)
		ct.end(w.put, id, start, key.Lo)
		return err
	}
	id, start := w.t.next.Add(1), nanos()
	err := w.Tier.Put(ctx, key, e)
	w.t.put(Span{ID: id, Client: -1, Name: w.put, Start: start, End: nanos(), Key: key.Lo})
	return err
}

// traceBumps brackets the OnBump hook cluster.New registers: hooks run
// in registration order on the committing goroutine, so one hook
// registered before cluster.New and one after it time the push. The
// hook receives no context, so the stack must belong to one client.
func traceBumps(inv *invalidate.Invalidator, ct *clientTrace) (after func()) {
	var id uint32
	var start int64
	inv.OnBump(func([]invalidate.Keyspace) { id, start = ct.begin() })
	return func() {
		inv.OnBump(func([]invalidate.Keyspace) { ct.end(spRemoteBump, id, start, 0) })
	}
}

// spanHeader carries the transport span across HTTP to the origin
// wrapper: "<span id>/<client>/<req>".
const spanHeader = "X-Bench-Span"

func spanHeaderValue(id uint32, ct *clientTrace) string {
	return strconv.FormatUint(uint64(id), 10) + "/" + strconv.Itoa(int(ct.client)) + "/" + strconv.FormatUint(uint64(ct.req), 10)
}

type tracedTransport struct{ inner transport.Transport }

func (w tracedTransport) Send(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	ct := clientTraceOf(ctx)
	if ct == nil {
		return w.inner.Send(ctx, req)
	}
	id, start := ct.begin()
	r := *req
	r.Header = req.Header.Clone()
	if r.Header == nil {
		r.Header = make(http.Header, 1)
	}
	r.Header.Set(spanHeader, spanHeaderValue(id, ct))
	resp, err := w.inner.Send(ctx, &r)
	ct.end(spTransport, id, start, 0)
	return resp, err
}

// tracedOrigin times the origin handler and links it to the transport
// span named in the request header.
type tracedOrigin struct {
	inner http.Handler
	t     *Tracer
}

func (h tracedOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := Span{ID: h.t.next.Add(1), Client: -1, Name: spServe}
	if parts := strings.Split(r.Header.Get(spanHeader), "/"); len(parts) == 3 {
		parent, _ := strconv.ParseUint(parts[0], 10, 32)
		cl, _ := strconv.Atoi(parts[1])
		req, _ := strconv.ParseUint(parts[2], 10, 32)
		s.Parent, s.Client, s.Req = uint32(parent), int8(cl), uint32(req)
	}
	s.Start = nanos()
	h.inner.ServeHTTP(w, r)
	s.End = nanos()
	h.t.put(s)
}

// spans returns the surviving spans in ID order, with daemon-side spans
// joined to the client-side cluster span that caused them: same tier
// key, same verb, interval contained.
func (t *Tracer) spans() []Span {
	total := t.next.Load()
	out := make([]Span, 0, traceRingSize)
	for i := range t.ring {
		// A slot reserved but never written (its writer lost a race with
		// shutdown) still holds an older lap's span; the ID test drops it.
		if s := t.ring[i]; s.ID != 0 && total-s.ID < traceRingSize {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })

	type sideKey struct {
		key  uint64
		name spanName
	}
	remote := make(map[sideKey][]int)
	for i, s := range out {
		if s.Name == spRemoteGet || s.Name == spRemotePut {
			k := sideKey{s.Key, s.Name}
			remote[k] = append(remote[k], i)
		}
	}
	clientSide := map[spanName]spanName{spDaemonGet: spRemoteGet, spDaemonPut: spRemotePut}
	for i := range out {
		d := &out[i]
		cs, ok := clientSide[d.Name]
		if !ok {
			continue
		}
		for _, j := range remote[sideKey{d.Key, cs}] {
			if r := out[j]; r.Start <= d.Start && d.End <= r.End {
				d.Parent, d.Client, d.Req = r.ID, r.Client, r.Req
				break
			}
		}
	}
	return out
}

// layerTimes is the per-layer reading of one traced phase.
type layerTimes struct {
	requests int
	self     [numSpanNames]spanStat // self time summed per request, over requests where the span occurred
	incl     [numSpanNames]spanStat // duration per occurrence
	wire     spanStat               // self time of all client-side cluster spans, per request
}

type spanStat struct {
	p50   float64
	perOp float64 // occurrences per request
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

// analyze computes self time (span minus the part its children cover)
// per layer, over requests whose root span survived in the ring. A
// root outlives its children in the ring because their IDs are newer.
func analyze(spans []Span) layerTimes {
	type reqKey struct {
		client int8
		req    uint32
	}
	roots := make(map[reqKey]bool)
	for _, s := range spans {
		if s.Name == spOp {
			roots[reqKey{s.Client, s.Req}] = true
		}
	}
	childSum := make(map[uint32]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	type perReq struct {
		self [numSpanNames]int64
		seen [numSpanNames]bool
	}
	reqs := make(map[reqKey]*perReq, len(roots))
	var incl [numSpanNames][]float64
	var count [numSpanNames]int
	for _, s := range spans {
		k := reqKey{s.Client, s.Req}
		if s.Client < 0 || !roots[k] {
			continue
		}
		pr := reqs[k]
		if pr == nil {
			pr = new(perReq)
			reqs[k] = pr
		}
		dur := s.End - s.Start
		pr.self[s.Name] += dur - childSum[s.ID]
		pr.seen[s.Name] = true
		incl[s.Name] = append(incl[s.Name], float64(dur))
		count[s.Name]++
	}
	lt := layerTimes{requests: len(reqs)}
	if lt.requests == 0 {
		return lt
	}
	var wire []float64
	for n := spanName(0); n < numSpanNames; n++ {
		var self []float64
		for _, pr := range reqs {
			if pr.seen[n] {
				self = append(self, float64(pr.self[n]))
			}
		}
		perOp := float64(count[n]) / float64(lt.requests)
		lt.self[n] = spanStat{median(self), perOp}
		lt.incl[n] = spanStat{median(incl[n]), perOp}
	}
	wireOps := 0
	for _, pr := range reqs {
		if pr.seen[spRemoteGet] || pr.seen[spRemotePut] || pr.seen[spRemoteBump] {
			wire = append(wire, float64(pr.self[spRemoteGet]+pr.self[spRemotePut]+pr.self[spRemoteBump]))
			wireOps++
		}
	}
	lt.wire = spanStat{median(wire), float64(wireOps) / float64(lt.requests)}
	return lt
}

// writeSpans appends one workload's spans to the trace file, one JSON
// object per line.
func writeSpans(path, workload string, spans []Span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"workload":%q,"id":%d,"parent":%d,"client":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			workload, s.ID, s.Parent, s.Client, s.Req, spanNames[s.Name], s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
