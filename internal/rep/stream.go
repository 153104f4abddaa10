package rep

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/sax"
)

// This file holds the byte-oriented streaming representations
// (DESIGN.md §5i): representations whose Load does not rebuild an
// application object at all but hands back the serialized response,
// ready to replay into an io.Writer. They exist for consumers that
// relay the response rather than compute on it — the portal scenario's
// section renderer, proxies, the server-side response cache — where
// deserializing on a hit is pure waste. Both are opt-in: the selector
// only considers them when the invocation declares
// client.Context.AcceptStream, because their hit result is a Streamed,
// not the decoded object.
//
//   - "raw" stores the exact response bytes; a hit is one buffer write.
//   - "xmltmpl" stores a splice template: the serialized skeleton is
//     interned per response shape and shared across entries, so each
//     entry holds only its escaped text values; a hit re-serializes by
//     memcpy interleave (sax.Template).

// Streamed is the hit result of the streaming representations: the
// serialized response, replayable into a writer without materializing
// an intermediate []byte. Implementations are immutable — WriteTo is
// safe to call concurrently and repeatedly.
type Streamed interface {
	io.WriterTo
	// Len returns the rendered byte length of the response.
	Len() int
	// Bytes returns the rendered response. The slice may be the cached
	// payload itself: callers must treat it as read-only.
	Bytes() []byte
}

// Static errors for the hot replay paths (fmt is banned there by the
// hotpath analyzer).
var (
	errRawPayload     = errors.New("rep: raw stream store: payload is not *RawResponse")
	errSplicedPayload = errors.New("rep: template store: payload is not *SplicedResponse")
)

// RawResponse is the "raw" payload and hit result: the exact response
// envelope bytes, immutable once stored.
type RawResponse struct {
	data []byte
}

var _ Streamed = (*RawResponse)(nil)

// Len implements Streamed.
func (p *RawResponse) Len() int { return len(p.data) }

// Bytes returns the response bytes. The slice is the cached payload
// itself: callers must treat it as read-only.
func (p *RawResponse) Bytes() []byte { return p.data }

// WriteTo implements io.WriterTo: one write, zero copies.
//
//lint:hotpath
func (p *RawResponse) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(p.data)
	return int64(n), err
}

// RawStreamStore is the zero-copy streaming representation: Store
// copies the response envelope once, Load returns the stored
// *RawResponse itself. Safe as pass-by-reference because the payload
// is immutable; the registry additionally gates it behind
// Context.AcceptStream so only consumers that declared they want bytes
// ever see it.
type RawStreamStore struct{}

var _ ValueStore = RawStreamStore{}

// NewRawStreamStore returns the raw streaming representation.
func NewRawStreamStore() RawStreamStore { return RawStreamStore{} }

// Name implements ValueStore.
func (RawStreamStore) Name() string { return "Raw response replay" }

// Store implements ValueStore.
func (RawStreamStore) Store(ictx *client.Context) (any, int, error) {
	if len(ictx.ResponseXML) == 0 {
		return nil, 0, fmt.Errorf("rep: raw stream store: %w: invocation captured no response XML", ErrNotApplicable)
	}
	// Copy: the context's buffer belongs to the transport.
	data := make([]byte, len(ictx.ResponseXML))
	copy(data, ictx.ResponseXML)
	return &RawResponse{data: data}, len(data), nil
}

// Load implements ValueStore: the payload is the result. No copy is
// needed — the bytes are immutable.
//
//lint:hotpath
func (RawStreamStore) Load(payload any) (any, error) {
	p, ok := payload.(*RawResponse)
	if !ok {
		return nil, errRawPayload
	}
	return p, nil
}

// EncodeWire implements WireStore (the payload already is wire bytes).
func (RawStreamStore) EncodeWire(payload any) ([]byte, error) {
	p, ok := payload.(*RawResponse)
	if !ok {
		return nil, errRawPayload
	}
	return p.data, nil
}

// DecodeWire implements WireStore. The input slice is retained.
func (RawStreamStore) DecodeWire(data []byte) (any, error) {
	return &RawResponse{data: data}, nil
}

// spliceBufPool holds the replay buffers for SplicedResponse.WriteTo:
// the splice is assembled in a pooled buffer and written once, so a
// steady-state replay allocates nothing.
var spliceBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// SplicedResponse is the "xmltmpl" payload and hit result: a shared,
// interned skeleton plus this entry's escaped text values. Immutable.
type SplicedResponse struct {
	// prologue is the verbatim XML declaration (plus the whitespace
	// after it) of the stored envelope. The sax event model does not
	// carry the declaration — parse skips it, the writer never emits
	// one — so it is kept here to make a replay byte-identical to the
	// origin's response. Empty when the envelope had none or only its
	// events were captured.
	prologue string
	tpl      *sax.Template
	values   []string // escaped (sax.EscapeValue), one per template slot
	size     int      // rendered byte length, prologue included
}

var _ Streamed = (*SplicedResponse)(nil)

// Len implements Streamed.
func (p *SplicedResponse) Len() int { return p.size }

// Bytes materializes the rendered response into a fresh slice.
func (p *SplicedResponse) Bytes() []byte {
	return p.tpl.AppendSplice(append(make([]byte, 0, p.size), p.prologue...), p.values)
}

// WriteTo implements io.WriterTo: prologue and splice are assembled in
// a pooled buffer and written once.
//
//lint:hotpath
func (p *SplicedResponse) WriteTo(w io.Writer) (int64, error) {
	bp := spliceBufPool.Get().(*[]byte)
	buf := *bp
	if cap(buf) < p.size {
		buf = make([]byte, 0, p.size)
	}
	n, err := p.tpl.SpliceTo(w, append(buf[:0], p.prologue...), p.values)
	*bp = buf
	spliceBufPool.Put(bp)
	return n, err
}

// xmlPrologue returns the leading XML declaration (and any whitespace
// separating it from the root element) of body, or "" when there is
// none.
func xmlPrologue(body []byte) string {
	if !bytes.HasPrefix(body, []byte("<?xml")) {
		return ""
	}
	end := bytes.Index(body, []byte("?>"))
	if end < 0 {
		return ""
	}
	end += 2
	for end < len(body) {
		switch body[end] {
		case ' ', '\t', '\r', '\n':
			end++
			continue
		}
		break
	}
	return string(body[:end])
}

// TemplateStats is a snapshot of a template interner's differential
// serialization activity.
type TemplateStats struct {
	// Builds counts full serializations that recorded a new skeleton.
	Builds int64 `json:"builds"`
	// Splices counts fills that reused an interned skeleton and paid
	// only value escaping — the differential wins.
	Splices int64 `json:"splices"`
	// Skeletons is the number of distinct response shapes interned.
	Skeletons int `json:"skeletons"`
	// SkeletonBytes is the total interned skeleton size: memory paid
	// once per shape rather than per entry.
	SkeletonBytes int64 `json:"skeleton_bytes"`
}

// templateCache interns sax.Templates per 128-bit response shape, for
// TemplateStore. Counters live in an obs registry
// (private until instrument is called) so template hits versus full
// re-serializations are visible wherever the registry is served.
type templateCache struct {
	mu        sync.Mutex
	skeletons map[[2]uint64]*sax.Template

	builds  *obs.Counter
	splices *obs.Counter
	reg     *obs.Registry
	timed   bool
	now     func() time.Time
}

func newTemplateCache() *templateCache {
	tc := &templateCache{skeletons: make(map[[2]uint64]*sax.Template)}
	tc.instrument(nil, nil)
	return tc
}

// instrument (re)binds the cache's counters and stage histograms to an
// obs registry; nil keeps a private registry (counters still count,
// nothing is served, and no clock is read).
func (tc *templateCache) instrument(reg *obs.Registry, clk clock.Func) {
	r := obs.Or(reg)
	builds := r.Counter("rep.template.builds")
	splices := r.Counter("rep.template.splices")
	tc.mu.Lock()
	if tc.builds != nil {
		builds.Add(tc.builds.Load())
		splices.Add(tc.splices.Load())
	}
	tc.builds, tc.splices = builds, splices
	tc.reg = r
	tc.timed = reg != nil
	tc.now = clock.Or(clk)
	tc.mu.Unlock()
}

// spliceFor builds the spliced payload for an event sequence and the
// prologue of the envelope it came from, interning (or reusing) the
// shape's skeleton. The returned resident size counts only the
// per-entry values and prologue — the skeleton is shared and accounted
// in TemplateStats.SkeletonBytes.
func (tc *templateCache) spliceFor(events []sax.Event, prologue string) (*SplicedResponse, int, error) {
	var start time.Time
	if tc.timed {
		start = tc.now()
	}
	lo, hi := sax.ShapeHash(events)
	key := [2]uint64{lo, hi}
	tc.mu.Lock()
	tpl := tc.skeletons[key]
	tc.mu.Unlock()

	var texts []string
	built := false
	if tpl != nil {
		texts = sax.SpliceTexts(events)
		if len(texts) != tpl.Slots() {
			// A 128-bit shape collision (or a corrupted sequence): use a
			// private template rather than splicing into the wrong
			// skeleton.
			tpl = nil
		}
	}
	if tpl == nil {
		var err error
		tpl, texts, err = sax.BuildTemplate(events)
		if err != nil {
			return nil, 0, err
		}
		built = true
		tc.mu.Lock()
		if cur, ok := tc.skeletons[key]; ok && cur.Slots() == tpl.Slots() {
			tpl = cur // lost a concurrent build race; share the winner
		} else {
			tc.skeletons[key] = tpl
		}
		tc.mu.Unlock()
	}

	values := make([]string, len(texts))
	total := 0
	for i, raw := range texts {
		values[i] = sax.EscapeValue(raw)
		total += len(values[i])
	}
	p := &SplicedResponse{prologue: prologue, tpl: tpl, values: values,
		size: len(prologue) + tpl.SkeletonSize() + total}

	if built {
		tc.builds.Add(1)
	} else {
		tc.splices.Add(1)
	}
	if tc.timed {
		stage := obs.StageTemplateSplice
		if built {
			stage = obs.StageTemplateBuild
		}
		tc.reg.Stage(stage, "", tc.now().Sub(start), nil)
	}
	const stringHeader = 16
	resident := len(prologue) + total + len(values)*stringHeader + 48
	return p, resident, nil
}

// stats snapshots the interner.
func (tc *templateCache) stats() TemplateStats {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	s := TemplateStats{
		Builds:    tc.builds.Load(),
		Splices:   tc.splices.Load(),
		Skeletons: len(tc.skeletons),
	}
	for _, tpl := range tc.skeletons {
		s.SkeletonBytes += int64(tpl.SkeletonSize())
	}
	return s
}

// TemplateStore is the template/differential serialization
// representation ("xmltmpl"): the first fill of a response shape
// serializes once and records the splice template; every later fill of
// the same shape copies only its escaped text values, and every hit
// replays by memcpy interleave. Front-loaded store cost, near-zero
// load cost, and per-entry memory that excludes the shared skeleton —
// exactly the profile the adaptive selector's cost model rewards for
// repeat-heavy workloads.
type TemplateStore struct {
	tc *templateCache
}

var _ ValueStore = (*TemplateStore)(nil)

// NewTemplateStore returns the template serialization representation.
func NewTemplateStore() *TemplateStore {
	return &TemplateStore{tc: newTemplateCache()}
}

// Name implements ValueStore.
func (s *TemplateStore) Name() string { return "XML template (splice)" }

// Store implements ValueStore.
func (s *TemplateStore) Store(ictx *client.Context) (any, int, error) {
	events := ictx.ResponseEvents
	if len(events) == 0 {
		if len(ictx.ResponseXML) == 0 {
			return nil, 0, fmt.Errorf("rep: template store: %w: invocation captured neither events nor XML", ErrNotApplicable)
		}
		var err error
		events, err = sax.Record(ictx.ResponseXML)
		if err != nil {
			return nil, 0, fmt.Errorf("rep: template store: %w", err)
		}
	}
	p, resident, err := s.tc.spliceFor(events, xmlPrologue(ictx.ResponseXML))
	if err != nil {
		return nil, 0, fmt.Errorf("rep: template store: %w", err)
	}
	//lint:ignore aliascopy the payload's values are immutable Go strings taken from the event texts; nothing reachable from it can mutate cached state
	return p, resident, nil
}

// Load implements ValueStore: the payload is the result (immutable).
//
//lint:hotpath
func (s *TemplateStore) Load(payload any) (any, error) {
	p, ok := payload.(*SplicedResponse)
	if !ok {
		return nil, errSplicedPayload
	}
	//lint:ignore aliascopy SplicedResponse is immutable (template + escaped string values); sharing it by reference is the whole point of the streaming hit
	return p, nil
}

// EncodeWire implements WireStore: the rendered document. A remote
// tier holds plain bytes; the receiving process re-derives (and
// interns) the template on decode, so skeleton sharing is preserved on
// both sides without shipping interner state.
func (s *TemplateStore) EncodeWire(payload any) ([]byte, error) {
	p, ok := payload.(*SplicedResponse)
	if !ok {
		return nil, errSplicedPayload
	}
	return p.Bytes(), nil
}

// DecodeWire implements WireStore.
func (s *TemplateStore) DecodeWire(data []byte) (any, error) {
	events, err := sax.Record(data)
	if err != nil {
		return nil, fmt.Errorf("rep: template store: wire payload: %w", err)
	}
	p, _, err := s.tc.spliceFor(events, xmlPrologue(data))
	if err != nil {
		return nil, fmt.Errorf("rep: template store: wire payload: %w", err)
	}
	return p, nil
}

// Stats snapshots the store's template interner.
func (s *TemplateStore) Stats() TemplateStats { return s.tc.stats() }

// Instrument binds the store's counters and build/splice stage
// histograms to an obs registry (clk for stage timing; nil uses the
// system clock).
func (s *TemplateStore) Instrument(reg *obs.Registry, clk clock.Func) {
	s.tc.instrument(reg, clk)
}

var (
	_ WireStore = RawStreamStore{}
	_ WireStore = (*TemplateStore)(nil)
)
