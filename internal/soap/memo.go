package soap

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"iter"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sax"
	"repro/internal/xmltext"
)

// This file is the envelope memo of the miss path (DESIGN.md §5l),
// after Deltarser: envelopes of one operation share their markup and
// differ in the text of their leaf elements. From one full decode of a
// shape the memo keeps the envelope's skeleton, its fixed byte
// segments, and a plan mapping each text hole to a field path and a
// simple type. A later envelope that matches every fixed segment byte
// for byte is decoded without the parser: each hole is checked as
// character data, unescaped only when it holds '&' or CR, and set
// through the plan into a fresh copy of the learnt result. Anything
// else takes the full decode, which still produces the result or the
// error; the cost of trying is one prefix compare.
//
// One type serves both ends: each client.Call decodes every response
// through a memo, and each server.Dispatcher its requests; a memo may
// be given an admission predicate over the operation element's local
// name, so the dispatcher's learns only the operations it serves. The
// skeleton half serves the streaming store too: rep's xmltmpl learns a
// Skeleton from the bytes alone (LearnSkeleton), keys it by ShapeKey
// and keeps per entry only the holes a match cuts. DecodeEnvelope,
// DecodeEnvelopeEvents, DecodeHandler and the rep object stores keep
// the memo-less parser, so the paper's Table 7 rows still measure what
// its Xerces did.

const (
	// memoShapes is how many shapes one memo holds: a dispatcher serves
	// every operation of its service through one memo. Once it is full
	// it learns no more: the shapes it has keep hitting, and a stream of
	// new shapes pays only the full decode. Only admitted operations
	// take a slot, so requests to operations the dispatcher does not
	// serve never fill it; a peer that sends 16 rare shapes of served
	// operations first costs later shapes the memo, never correctness
	// or more memory than the bounds allow.
	memoShapes = 16
	// memoSkeletonCap bounds the fixed bytes one shape keeps.
	memoSkeletonCap = 64 << 10
	// memoSeen is how many single sightings the memo remembers. A shape
	// is learnt on its second sighting, so a document seen once costs
	// the full decode and a shape key, nothing more.
	memoSeen = 32
	// memoParams bounds a shape's parameter count; doGoogleSearch sends
	// ten.
	memoParams = 16
	// poisoned marks a seen key whose shape the plan cannot express or
	// whose operation the memo does not admit.
	poisoned = 1 << 63
)

// EnvelopeMemo decodes envelopes exactly as DecodeEnvelope does,
// memoizing each shape it sees twice. It is safe for concurrent use:
// the shapes sit behind an atomic pointer and are replaced copy on
// write when the memo learns one, so a hit takes no lock.
type EnvelopeMemo struct {
	codec  *Codec
	admit  func(operation string) bool // nil admits every operation
	shapes atomic.Pointer[[]*shape]
	seen   [memoSeen]atomic.Uint64
	next   atomic.Uint32
	mu     sync.Mutex // serializes installs
}

// NewEnvelopeMemo returns an empty memo decoding with c's registry. It
// learns the shape of an envelope only when admit, called with the local
// name of the envelope's operation element, reports true; a nil admit
// admits every envelope.
func (c *Codec) NewEnvelopeMemo(admit func(operation string) bool) *EnvelopeMemo {
	return &EnvelopeMemo{codec: c, admit: admit}
}

// Decode decodes an envelope. Its result and error are those of
// DecodeEnvelope. The result never aliases doc.
func (m *EnvelopeMemo) Decode(doc []byte) (*DecodedMessage, error) {
	shapes := m.shapes.Load()
	if shapes != nil {
		for _, s := range *shapes {
			if msg, ok := s.decode(doc); ok {
				return msg, nil
			}
		}
	}
	if hasHref(doc) {
		return m.codec.decodeMultiRefDoc(doc)
	}
	key := ShapeKey(doc)
	if (shapes != nil && len(*shapes) >= memoShapes) || !m.sighting(key) {
		d := newEnvelopeDecoder(m.codec.reg)
		return d.decode(doc, d)
	}
	l := &learner{envelopeDecoder: newEnvelopeDecoder(m.codec.reg)}
	l.observer = l
	msg, err := l.decode(doc, l)
	if err != nil {
		return nil, err
	}
	if m.admit != nil && !m.admit(msg.Wrapper.Local) {
		m.poison(key)
		return msg, nil
	}
	s := l.shape(doc, msg)
	if s == nil {
		m.poison(key)
		return msg, nil
	}
	// The learnt result becomes the shape's prototype, so the caller
	// gets a copy: the hit path run on the learning document.
	fresh, ok := s.decode(doc)
	if !ok {
		m.poison(key)
		return msg, nil
	}
	m.install(s)
	return fresh, nil
}

// Shapes returns how many shapes the memo has learnt.
func (m *EnvelopeMemo) Shapes() int {
	if p := m.shapes.Load(); p != nil {
		return len(*p)
	}
	return 0
}

// sighting records key and reports whether it was seen before and not
// poisoned.
func (m *EnvelopeMemo) sighting(key uint64) bool {
	for i := range m.seen {
		switch m.seen[i].Load() {
		case key:
			return true
		case key | poisoned:
			return false
		}
	}
	m.seen[m.next.Add(1)%memoSeen].Store(key)
	return false
}

// poison marks key as a shape not to learn again.
func (m *EnvelopeMemo) poison(key uint64) {
	for i := range m.seen {
		m.seen[i].CompareAndSwap(key, key|poisoned)
	}
}

// install adds s unless the memo is full or already holds its shape.
func (m *EnvelopeMemo) install(s *shape) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var cur []*shape
	if p := m.shapes.Load(); p != nil {
		cur = *p
	}
	if len(cur) >= memoShapes {
		return
	}
	for _, o := range cur {
		if o.fixed == s.fixed && slices.Equal(o.ends, s.ends) {
			return
		}
	}
	next := append(append(make([]*shape, 0, len(cur)+1), cur...), s)
	m.shapes.Store(&next)
}

var shapeSeed = maphash.MakeSeed()

// ShapeKey hashes doc's markup runs, skipping every run of text
// between a '>' and the next '<', so two documents that differ only in
// their text share a key. It allocates nothing.
func ShapeKey(doc []byte) uint64 {
	var h maphash.Hash
	h.SetSeed(shapeSeed)
	for i := 0; i < len(doc); {
		lt := bytes.IndexByte(doc[i:], '<')
		if lt < 0 {
			break
		}
		j := i + lt
		for {
			gt := bytes.IndexByte(doc[j:], '>')
			if gt < 0 {
				j = len(doc)
				break
			}
			if j += gt + 1; j >= len(doc) || doc[j] != '<' {
				break
			}
		}
		h.Write(doc[i+lt : j])
		h.WriteByte(0)
		i = j
	}
	return h.Sum64()&^poisoned | 1
}

// Skeleton is the fixed half of a document shape: its byte segments,
// with a hole between each pair. A document has the skeleton when it is
// the segments with a run of text free of '<' in every hole; each
// segment after a hole starts with '<'. Skeletons are immutable: the
// memo's shapes embed one, and internal/rep's xmltmpl representation
// shares one across the entries of a response shape.
type Skeleton struct {
	// fixed holds the segments back to back; segment k ends at
	// ends[k], and hole k lies between segments k and k+1.
	fixed string
	ends  []int
}

// Holes returns how many holes the skeleton has.
func (k *Skeleton) Holes() int { return len(k.ends) - 1 }

// Size returns the byte length of the fixed segments.
func (k *Skeleton) Size() int { return len(k.fixed) }

// AppendFilled appends to dst the document of the skeleton with hole i
// holding holes[cuts[i-1]:cuts[i]] (cuts[-1] being 0). cuts must have
// one end per hole.
func (k *Skeleton) AppendFilled(dst, holes []byte, cuts []uint32) []byte {
	at, prev := 0, uint32(0)
	for i, cut := range cuts {
		dst = append(dst, k.fixed[at:k.ends[i]]...)
		dst = append(dst, holes[prev:cut]...)
		at, prev = k.ends[i], cut
	}
	return append(dst, k.fixed[at:]...)
}

// Match reports whether doc has the skeleton. Its holes then hold
// len(doc) - Size() bytes.
func (k *Skeleton) Match(doc []byte) bool {
	n := k.ends[0]
	if len(doc) < n || string(doc[:n]) != k.fixed[:n] {
		return false
	}
	pos := n
	for i := 1; i < len(k.ends); i++ {
		lt := bytes.IndexByte(doc[pos:], '<')
		if lt < 0 {
			return false
		}
		seg := k.fixed[k.ends[i-1]:k.ends[i]]
		if pos += lt; len(doc)-pos < len(seg) || string(doc[pos:pos+len(seg)]) != seg {
			return false
		}
		pos += len(seg)
	}
	return pos == len(doc)
}

// Cut yields each hole of doc, which Match accepted, in order.
func (k *Skeleton) Cut(doc []byte) iter.Seq2[int, []byte] {
	return func(yield func(int, []byte) bool) {
		pos := k.ends[0]
		for i := 1; i < len(k.ends); i++ {
			lt := bytes.IndexByte(doc[pos:], '<')
			if !yield(i-1, doc[pos:pos+lt]) {
				return
			}
			pos += lt + k.ends[i] - k.ends[i-1]
		}
	}
}

// cutSkeleton returns the skeleton of doc whose holes are the given
// ranges, in order, reporting false when its fixed bytes exceed
// memoSkeletonCap.
func cutSkeleton(doc []byte, holes [][2]int) (Skeleton, bool) {
	var b strings.Builder
	ends := make([]int, 0, len(holes)+1)
	last := 0
	for _, h := range holes {
		b.Write(doc[last:h[0]])
		ends = append(ends, b.Len())
		last = h[1]
	}
	b.Write(doc[last:])
	return Skeleton{fixed: b.String(), ends: append(ends, b.Len())}, b.Len() <= memoSkeletonCap
}

// LearnSkeleton learns doc's skeleton from its bytes alone: every run
// of text between two tags is a hole, and so is the content of an
// element that is empty here but may hold text elsewhere (<a></a>). It
// follows the memo learner's rules: it reports false for a document
// holding markup other than elements and a leading XML declaration, for
// one with no element, and for fixed bytes over memoSkeletonCap.
func LearnSkeleton(doc []byte) (*Skeleton, bool) {
	tags, ok := scanTags(doc)
	if !ok || !slices.ContainsFunc(tags, func(t tag) bool { return t.element }) {
		return nil, false
	}
	var holes [][2]int
	for i := 1; i < len(tags); i++ {
		a, b := tags[i-1], tags[i]
		if b.start > a.end || (a.element && !a.selfClosing && doc[b.start+1] == '/') {
			holes = append(holes, [2]int{a.end, b.start})
		}
	}
	k, ok := cutSkeleton(doc, holes)
	return &k, ok
}

// shape is one memoized envelope shape: the skeleton of its envelope,
// whose holes are the texts of its leaf values, the plan for those
// holes, and the learnt result as the prototype every hit copies. A
// shape is immutable once learnt.
type shape struct {
	Skeleton
	holes   []hole
	wrapper sax.Name
	params  []memoParam
}

// hole is where one text hole goes: the leaf of parameter param at
// path, decoded as the full decoder decodes a frame of kind and goType.
type hole struct {
	param  int
	path   []int
	kind   fkind
	goType reflect.Type
	// direct: the destination has goType (or is []byte for base64), so
	// the text is parsed straight into it; otherwise it is parsed to
	// goType and assigned, with assign's conversions.
	direct bool
	// boxed: the hole is a whole parameter of a predeclared simple
	// type, so its value is boxed without reflect (box).
	boxed bool
}

// memoParam is one parameter of the prototype message.
type memoParam struct {
	name  string
	proto reflect.Value // invalid for a nil parameter
	// hole is the index of the hole that is the whole value, or -1.
	hole int
	// clone lists, parent first, the locations below the prototype's
	// top-level copy that need fresh memory of their own: pointers and
	// slices.
	clone [][]int
}

// decode decodes doc through the shape, reporting false when doc does
// not have the shape or a hole does not decode; the caller then takes
// the full decode. A learnt skeleton holds no href (hasHref sends such
// documents to the multi-ref decoder before any learning), so a hole
// that holds one is the only way doc can, and it falls back too.
func (s *shape) decode(doc []byte) (*DecodedMessage, bool) {
	if !s.Match(doc) {
		return nil, false
	}

	// One string holds every hole's text.
	var b strings.Builder
	b.Grow(len(doc) - s.Size())
	var params []Param
	if len(s.params) > 0 {
		params = make([]Param, len(s.params))
	}
	var bases [memoParams]reflect.Value
	for i := range s.params {
		params[i].Name = s.params[i].name
		params[i].Value, bases[i] = s.params[i].fresh()
	}
	for k, raw := range s.Cut(doc) {
		if bytes.IndexByte(raw, '#') >= 0 && hasHref(raw) {
			return nil, false
		}
		start := b.Len()
		if xmltext.AppendCharData(&b, raw) != nil {
			return nil, false
		}
		h := &s.holes[k]
		if !h.set(bases[h.param], b.String()[start:], &params[h.param]) {
			return nil, false
		}
	}
	return &DecodedMessage{Wrapper: s.wrapper, Params: params}, true
}

// fresh returns a deep copy of the prototype value, and the
// addressable value hole paths start from.
func (p *memoParam) fresh() (any, reflect.Value) {
	var base, top, proto reflect.Value
	switch {
	case !p.proto.IsValid() || p.hole >= 0:
		return nil, reflect.Value{}
	case p.proto.Kind() == reflect.Pointer:
		proto = p.proto.Elem()
		top = reflect.New(proto.Type())
		base = top.Elem()
		base.Set(proto)
	case p.proto.Kind() == reflect.Slice:
		proto = p.proto
		top = reflect.MakeSlice(proto.Type(), proto.Len(), proto.Len())
		reflect.Copy(top, proto)
		base = top
	default:
		return p.proto.Interface(), reflect.Value{}
	}
	for _, path := range p.clone {
		loc := walk(base, path)
		switch loc.Kind() {
		case reflect.Pointer:
			v := reflect.New(loc.Type().Elem())
			v.Elem().Set(loc.Elem())
			loc.Set(v)
		case reflect.Slice:
			// Grown in place: reflect.MakeSlice would allocate a
			// header as well as the array.
			n := loc.Len()
			loc.SetZero()
			loc.Grow(n)
			loc.SetLen(n)
			reflect.Copy(loc, walk(proto, path))
		}
	}
	return top.Interface(), base
}

// walk follows path from v: a struct field or slice index per step,
// through any pointers on the way.
func walk(v reflect.Value, path []int) reflect.Value {
	for _, i := range path {
		for v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		if v.Kind() == reflect.Struct {
			v = v.Field(i)
		} else {
			v = v.Index(i)
		}
	}
	return v
}

// leaf is walk followed through any pointers at the destination.
func leaf(v reflect.Value, path []int) reflect.Value {
	v = walk(v, path)
	for v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	return v
}

// set decodes one hole's text into its destination under base, or into
// the parameter itself when the hole is its whole value.
func (h *hole) set(base reflect.Value, text string, p *Param) bool {
	if h.boxed {
		v, ok := box(h.goType.Kind(), text)
		p.Value = v
		return ok
	}
	if len(h.path) == 0 {
		v, ok := h.value(text)
		if ok {
			p.Value = v.Interface()
		}
		return ok
	}
	dst := leaf(base, h.path)
	if h.direct {
		if h.kind == fBytes {
			data, err := decodeBytes(text)
			if err != nil {
				return false
			}
			dst.SetBytes(data)
			return true
		}
		return setSimple(dst, text) == nil
	}
	v, ok := h.value(text)
	return ok && assign(dst, v) == nil
}

// value decodes text as the full decoder finalizes the hole's frame.
func (h *hole) value(text string) (reflect.Value, bool) {
	if h.kind == fBytes {
		data, err := decodeBytes(text)
		return reflect.ValueOf(data), err == nil
	}
	v, err := parseSimple(h.goType, text)
	return v, err == nil
}

// box parses text as a predeclared simple type of kind k with
// setSimple's rules, and boxes it without reflect, so an empty string,
// a boolean or an integer below 256 needs no allocation. Its kinds are
// those of the Go types goTypeFor maps XSD types to; it reports false
// for any other kind and for text setSimple refuses.
func box(k reflect.Kind, text string) (any, bool) {
	switch k {
	case reflect.String:
		return text, true
	case reflect.Bool:
		b, err := parseBool(text)
		return b, err == nil
	case reflect.Int:
		return boxInt[int](text, 0)
	case reflect.Int8:
		return boxInt[int8](text, 8)
	case reflect.Int16:
		return boxInt[int16](text, 16)
	case reflect.Int64:
		return boxInt[int64](text, 64)
	case reflect.Uint:
		return boxUint[uint](text, 0)
	case reflect.Uint64:
		return boxUint[uint64](text, 64)
	case reflect.Float32, reflect.Float64:
		f, err := strconv.ParseFloat(numberText(text), 64)
		if k == reflect.Float32 {
			return float32(f), err == nil
		}
		return f, err == nil
	}
	return nil, false
}

// boxInt and boxUint parse an integer of bits bits (0 for int and uint)
// as setSimple does: overflow is an error.
func boxInt[T int | int8 | int16 | int64](text string, bits int) (any, bool) {
	n, err := strconv.ParseInt(numberText(text), 10, bits)
	return T(n), err == nil
}

func boxUint[T uint | uint64](text string, bits int) (any, bool) {
	n, err := strconv.ParseUint(numberText(text), 10, bits)
	return T(n), err == nil
}

// boxable reports whether box parses t's values: t is a predeclared
// type, not a named one, of a kind box knows.
func boxable(t reflect.Type) bool {
	_, ok := box(t.Kind(), "0")
	return ok && t.PkgPath() == "" && t.Name() == t.Kind().String()
}

// learner drives the full decoder over an envelope while noting, from
// the decoder's own frame decisions, which start tag opened each value
// frame and where the frame's value went.
type learner struct {
	*envelopeDecoder
	tags   int
	frames []learnFrame
	open   []int // frames index of each open value frame, by stack depth
}

// learnFrame is one value frame of the learning decode.
type learnFrame struct {
	tag    int // index of the start tag that opened it
	kind   fkind
	goType reflect.Type
	parent int // frames index of the parent frame; -1 for a parameter
	placed bool
	step   int // see frameObserver.placed
	item   int
}

// OnStartElement counts start tags and notes each value frame opened.
func (l *learner) OnStartElement(name sax.Name, attrs []sax.Attribute) error {
	l.tags++
	depth, value := len(l.stack), l.state == stateParams
	if err := l.envelopeDecoder.OnStartElement(name, attrs); err != nil {
		return err
	}
	if value {
		f := &l.stack[depth]
		parent := -1
		if depth > 0 {
			parent = l.open[depth-1]
		}
		l.open = append(l.open[:depth], len(l.frames))
		l.frames = append(l.frames, learnFrame{tag: l.tags - 1, kind: f.kind, goType: f.goType, parent: parent, item: -1})
	}
	return nil
}

// placed implements frameObserver.
func (l *learner) placed(step, item int) {
	lf := &l.frames[l.open[len(l.stack)]]
	lf.placed, lf.step, lf.item = true, step, item
}

// path returns the parameter and the path from its value to frame i's
// location, with ok false when the frame or an ancestor was dropped.
func (l *learner) path(i int) (param int, path []int, ok bool) {
	for {
		lf := &l.frames[i]
		if !lf.placed {
			return 0, nil, false
		}
		if lf.parent < 0 {
			param = lf.step
			break
		}
		if lf.item >= 0 {
			path = append(path, lf.item)
		}
		path = append(path, lf.step)
		i = lf.parent
	}
	slices.Reverse(path)
	return param, path, true
}

// shape builds the memo entry for doc, decoded to msg, or returns nil
// when the plan cannot express it: a fault, markup other than elements
// and a leading XML declaration, a location written twice, a value the
// prototype copy cannot make fresh, or a skeleton over the cap.
func (l *learner) shape(doc []byte, msg *DecodedMessage) *shape {
	if msg.Fault != nil || len(msg.Params) > memoParams {
		return nil
	}
	tags, ok := scanTags(doc)
	tags = slices.DeleteFunc(tags, func(t tag) bool { return !t.element })
	if !ok || len(tags) != l.tags {
		return nil
	}
	s := &shape{wrapper: msg.Wrapper, params: make([]memoParam, len(msg.Params))}
	for i, p := range msg.Params {
		s.params[i] = memoParam{name: p.Name, proto: reflect.ValueOf(p.Value), hole: -1}
		if !s.params[i].plan() {
			return nil
		}
	}
	written := make(map[string]bool)
	var cuts [][2]int
	for i := range l.frames {
		lf := &l.frames[i]
		param, path, ok := l.path(i)
		if !ok {
			continue
		}
		where := fmt.Sprint(param, path)
		if written[where] {
			return nil
		}
		written[where] = true
		t := tags[lf.tag]
		if (lf.kind != fSimple && lf.kind != fBytes) || t.selfClosing {
			continue
		}
		end := bytes.IndexByte(doc[t.end:], '<')
		if end < 0 || !bytes.HasPrefix(doc[t.end+end:], []byte("</")) {
			return nil
		}
		cuts = append(cuts, [2]int{t.end, t.end + end})
		h := hole{param: param, path: path, kind: lf.kind, goType: lf.goType}
		if len(path) == 0 {
			s.params[param].hole = len(s.holes)
			h.boxed = lf.kind == fSimple && boxable(lf.goType)
		} else {
			// plan accepted the prototype, so no interface or nil
			// pointer lies on the path.
			dst := leaf(s.params[param].proto, path)
			if lf.kind == fBytes {
				h.direct = dst.Type() == bytesType
			} else {
				h.direct = dst.Type() == lf.goType
			}
		}
		s.holes = append(s.holes, h)
	}
	if s.Skeleton, ok = cutSkeleton(doc, cuts); !ok {
		return nil
	}
	return s
}

var bytesType = reflect.TypeOf([]byte(nil))

// plan fills p.clone, reporting false when the prototype holds a value
// a copy cannot make fresh.
func (p *memoParam) plan() bool {
	switch {
	case !p.proto.IsValid():
		return true
	case p.proto.Kind() == reflect.Pointer:
		return p.proto.Elem().Kind() == reflect.Struct && clonePlan(p.proto.Elem(), nil, &p.clone)
	case p.proto.Kind() == reflect.Slice:
		if !clonePlan(p.proto, nil, &p.clone) {
			return false
		}
		p.clone = p.clone[1:] // the top-level copy is fresh's own
	}
	return true
}

// clonePlan appends to plan, parent first, the path of every pointer
// and slice under v that a copy must make fresh, and reports false when
// v holds something the copy cannot make fresh: an interface, map,
// channel or function value, or a pointer to a pointer.
func clonePlan(v reflect.Value, path []int, plan *[][]int) bool {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return true
		}
		if v.Elem().Kind() == reflect.Pointer {
			return false
		}
		*plan = append(*plan, append([]int(nil), path...))
		return clonePlan(v.Elem(), path, plan)
	case reflect.Slice:
		if v.IsNil() {
			return true
		}
		*plan = append(*plan, append([]int(nil), path...))
		if flat(v.Type().Elem()) {
			return true
		}
		for i := 0; i < v.Len(); i++ {
			if !clonePlan(v.Index(i), append(path, i), plan) {
				return false
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !clonePlan(v.Field(i), append(path, i), plan) {
				return false
			}
		}
	case reflect.Array:
		return flat(v.Type())
	case reflect.Interface, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return v.IsNil()
	}
	return true
}

// flat reports whether a value of type t copies by assignment: it
// holds no pointer, slice, map, interface, channel or function.
func flat(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return false
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !flat(t.Field(i).Type) {
				return false
			}
		}
	case reflect.Array:
		return flat(t.Elem())
	}
	return true
}

// tag is where one tag lies in a document.
type tag struct {
	start, end  int // offsets of its '<' and just past its '>'
	element     bool
	selfClosing bool
}

// scanTags lists doc's tags in order, reporting false when doc holds
// markup other than elements and a leading XML declaration: comments,
// CDATA sections, DOCTYPEs and processing instructions split text in
// ways neither the plan nor a skeleton models.
func scanTags(doc []byte) ([]tag, bool) {
	var tags []tag
	first := true
	for i := 0; i < len(doc); first = false {
		lt := bytes.IndexByte(doc[i:], '<')
		if lt < 0 {
			break
		}
		lt += i
		if lt+1 >= len(doc) {
			return nil, false
		}
		switch doc[lt+1] {
		case '!':
			return nil, false
		case '?':
			end := bytes.Index(doc[lt:], []byte("?>"))
			if !first || end < 0 {
				return nil, false
			}
			i = lt + end + 2
			tags = append(tags, tag{start: lt, end: i})
		case '/':
			end := bytes.IndexByte(doc[lt:], '>')
			if end < 0 {
				return nil, false
			}
			i = lt + end + 1
			tags = append(tags, tag{start: lt, end: i})
		default:
			j, quote := lt+1, byte(0)
			for ; j < len(doc); j++ {
				c := doc[j]
				if quote != 0 {
					if c == quote {
						quote = 0
					}
					continue
				}
				if c == '"' || c == '\'' {
					quote = c
				} else if c == '>' {
					break
				}
			}
			if j >= len(doc) {
				return nil, false
			}
			tags = append(tags, tag{start: lt, end: j + 1, element: true, selfClosing: doc[j-1] == '/'})
			i = j + 1
		}
	}
	return tags, true
}
