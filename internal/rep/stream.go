package rep

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/client"
	"repro/internal/soap"
	"repro/internal/xmltext"
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
//   - "xmltmpl" stores a skeleton and holes: the response's fixed
//     bytes are interned per response shape and shared across entries,
//     so each entry holds only its text runs as they came off the wire;
//     a hit replays the origin's bytes by memcpy interleave
//     (soap.Skeleton).

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
	errRawPayload      = errors.New("rep: raw stream store: payload is not *RawResponse")
	errTemplatePayload = errors.New("rep: template store: payload is not *TemplateResponse")
	errNotSplit        = fmt.Errorf("rep: template store: %w: no skeleton splits the document (markup other than elements and a leading XML declaration, or too much of it)", ErrNotApplicable)
	errNotCharData     = fmt.Errorf("rep: template store: %w: a text run is not XML character data", ErrNotApplicable)
)

// rawResponse is the "raw" payload and hit result: the exact response
// envelope bytes, immutable once stored.
type rawResponse struct {
	data []byte
}

var _ Streamed = (*rawResponse)(nil)

// Len implements Streamed.
func (p *rawResponse) Len() int { return len(p.data) }

// Bytes returns the response bytes. The slice is the cached payload
// itself: callers must treat it as read-only.
func (p *rawResponse) Bytes() []byte { return p.data }

// WriteTo implements io.WriterTo: one write, zero copies.
//
//lint:hotpath
func (p *rawResponse) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(p.data)
	return int64(n), err
}

// rawStreamStore is the zero-copy streaming representation: Store
// copies the response envelope once, Load returns the stored
// *rawResponse itself. Safe as pass-by-reference because the payload
// is immutable; the registry additionally gates it behind
// Context.AcceptStream so only consumers that declared they want bytes
// ever see it.
type rawStreamStore struct{}

var _ ValueStore = rawStreamStore{}

// NewRawStreamStore returns the raw streaming representation.
func NewRawStreamStore() rawStreamStore { return rawStreamStore{} }

// Name implements ValueStore.
func (rawStreamStore) Name() string { return "Raw response replay" }

// Store implements ValueStore.
func (rawStreamStore) Store(ictx *client.Context) (any, int, error) {
	if len(ictx.ResponseXML) == 0 {
		return nil, 0, fmt.Errorf("rep: raw stream store: %w: invocation captured no response XML", ErrNotApplicable)
	}
	// Copy: the context's buffer belongs to the transport.
	data := make([]byte, len(ictx.ResponseXML))
	copy(data, ictx.ResponseXML)
	return &rawResponse{data: data}, len(data), nil
}

// Load implements ValueStore: the payload is the result. No copy is
// needed — the bytes are immutable.
//
//lint:hotpath
func (rawStreamStore) Load(payload any) (any, error) {
	p, ok := payload.(*rawResponse)
	if !ok {
		return nil, errRawPayload
	}
	return p, nil
}

// EncodeWire implements WireStore (the payload already is wire bytes).
func (rawStreamStore) EncodeWire(payload any) ([]byte, error) {
	p, ok := payload.(*rawResponse)
	if !ok {
		return nil, errRawPayload
	}
	return p.data, nil
}

// DecodeWire implements WireStore. The input slice is retained.
func (rawStreamStore) DecodeWire(data []byte) (any, error) {
	return &rawResponse{data: data}, nil
}

// spliceBufPool holds the replay buffers for templateResponse.WriteTo:
// the document is assembled in a pooled buffer and written once, so a
// steady-state replay allocates nothing.
var spliceBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// templateResponse is the "xmltmpl" payload and hit result: a shared
// skeleton plus this entry's holes, byte for byte as the origin sent
// them. Immutable.
type templateResponse struct {
	skel  *soap.Skeleton
	holes []byte   // the holes back to back
	cuts  []uint32 // hole k ends at cuts[k]
}

var _ Streamed = (*templateResponse)(nil)

// Len implements Streamed.
func (p *templateResponse) Len() int { return p.skel.Size() + len(p.holes) }

// Bytes renders the response into a fresh slice.
func (p *templateResponse) Bytes() []byte {
	return p.skel.AppendFilled(make([]byte, 0, p.Len()), p.holes, p.cuts)
}

// WriteTo implements io.WriterTo: the response is assembled in a
// pooled buffer and written once.
//
//lint:hotpath
func (p *templateResponse) WriteTo(w io.Writer) (int64, error) {
	bp := spliceBufPool.Get().(*[]byte)
	buf := *bp
	if n := p.Len(); cap(buf) < n {
		buf = make([]byte, 0, n)
	}
	buf = p.skel.AppendFilled(buf[:0], p.holes, p.cuts)
	n, err := w.Write(buf)
	*bp = buf
	spliceBufPool.Put(bp)
	return int64(n), err
}

// templateShapes bounds the skeletons one TemplateStore interns. A
// response shape seen once the set is full still caches: its entry
// keeps a private skeleton.
const templateShapes = 64

// templateStats is a snapshot of a template store's skeleton sharing.
type templateStats struct {
	// Learns counts fills that learnt a skeleton from the response's
	// bytes: the first of a shape, and any the interned set has no
	// matching skeleton for.
	Learns int64 `json:"learns"`
	// Matches counts fills that matched an interned skeleton and kept
	// only their holes.
	Matches int64 `json:"matches"`
	// Skeletons is the number of distinct response shapes interned.
	Skeletons int `json:"skeletons"`
	// SkeletonBytes is the total interned skeleton size: memory paid
	// once per shape rather than per entry.
	SkeletonBytes int64 `json:"skeleton_bytes"`
}

// TemplateStore is the template representation ("xmltmpl"), after
// differential serialization: responses of one operation share their
// markup and differ in their text. The first fill of a response shape
// learns its skeleton from the bytes (soap.LearnSkeleton) and interns
// it by soap.ShapeKey; a later fill of the shape matches it by byte
// compare and keeps only its holes, exactly as they came off the wire,
// so a hit replays the origin's bytes by interleaving the two.
// Per-entry memory excludes the shared skeleton, which suits
// repeat-heavy workloads.
type TemplateStore struct {
	mu        sync.Mutex // guards skeletons
	skeletons map[uint64]*soap.Skeleton

	learns, matches, skeletonBytes atomic.Int64
	interned                       atomic.Int32
}

// NewTemplateStore returns the template representation.
func NewTemplateStore() *TemplateStore {
	return &TemplateStore{skeletons: make(map[uint64]*soap.Skeleton)}
}

// Name implements ValueStore.
func (s *TemplateStore) Name() string { return "XML template (splice)" }

// Store implements ValueStore.
func (s *TemplateStore) Store(ictx *client.Context) (any, int, error) {
	p, shared, err := s.split(ictx.ResponseXML)
	if err != nil {
		return nil, 0, err
	}
	// The entry is charged its holes, their offsets and its header; an
	// interned skeleton is shared and accounted in
	// templateStats.SkeletonBytes, a private one is the entry's own.
	const header = 56
	size := len(p.holes) + 4*len(p.cuts) + header
	if !shared {
		size += p.skel.Size()
	}
	// split copied the holes out of the context's buffer; the skeleton
	// is immutable.
	return p, size, nil
}

// split matches doc against its shape's interned skeleton, learning
// (and, while the set has room, interning) one when there is none, and
// copies doc's holes into a new payload; shared reports whether the
// payload's skeleton is the interned one.
func (s *TemplateStore) split(doc []byte) (p *templateResponse, shared bool, err error) {
	key := soap.ShapeKey(doc)
	s.mu.Lock()
	k := s.skeletons[key]
	s.mu.Unlock()
	learnt := k == nil || !k.Match(doc)
	if learnt {
		var ok bool
		if k, ok = soap.LearnSkeleton(doc); !ok {
			return nil, false, errNotSplit
		}
	}
	text := len(doc) - k.Size()
	p = &templateResponse{skel: k, holes: make([]byte, 0, text), cuts: make([]uint32, 0, k.Holes())}
	var check strings.Builder
	check.Grow(text)
	for _, hole := range k.Cut(doc) {
		if xmltext.AppendCharData(&check, hole) != nil {
			return nil, false, errNotCharData
		}
		p.holes = append(p.holes, hole...)
		p.cuts = append(p.cuts, uint32(len(p.holes)))
	}
	if !learnt {
		s.matches.Add(1)
		return p, true, nil
	}
	s.learns.Add(1)
	return p, s.intern(key, k), nil
}

// intern installs k as key's skeleton, reporting false, and leaving k
// private to its entry, when the set has one for key or is full.
func (s *TemplateStore) intern(key uint64, k *soap.Skeleton) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.skeletons[key]; ok || len(s.skeletons) >= templateShapes {
		return false
	}
	s.skeletons[key] = k
	s.interned.Add(1)
	s.skeletonBytes.Add(int64(k.Size()))
	return true
}

// Load implements ValueStore: the payload is the result (immutable).
//
//lint:hotpath
func (s *TemplateStore) Load(payload any) (any, error) {
	p, ok := payload.(*templateResponse)
	if !ok {
		return nil, errTemplatePayload
	}
	return p, nil
}

// EncodeWire implements WireStore: the rendered document. A remote
// tier holds plain bytes; the receiving store matches them against its
// own skeletons on decode, so skeleton sharing holds on both sides
// without shipping any.
func (s *TemplateStore) EncodeWire(payload any) ([]byte, error) {
	p, ok := payload.(*templateResponse)
	if !ok {
		return nil, errTemplatePayload
	}
	return p.Bytes(), nil
}

// DecodeWire implements WireStore.
func (s *TemplateStore) DecodeWire(data []byte) (any, error) {
	p, _, err := s.split(data)
	if err != nil {
		return nil, corrupt("template store", err)
	}
	return p, nil
}

// Stats snapshots the store's skeleton sharing.
func (s *TemplateStore) Stats() templateStats {
	return templateStats{
		Learns:        s.learns.Load(),
		Matches:       s.matches.Load(),
		Skeletons:     int(s.interned.Load()),
		SkeletonBytes: s.skeletonBytes.Load(),
	}
}

var (
	_ WireStore = rawStreamStore{}
	_ WireStore = (*TemplateStore)(nil)
)
