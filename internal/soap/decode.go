package soap

import (
	"encoding/base64"
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/sax"
	"repro/internal/typemap"
)

// DecodedMessage is the result of decoding an envelope: the rpc wrapper
// element, its decoded parameters, or a fault.
type DecodedMessage struct {
	Wrapper sax.Name
	Params  []Param
	Fault   *Fault
}

// Result returns the value of the first parameter (the "return" part of
// a response), or nil.
func (m *DecodedMessage) Result() any {
	if len(m.Params) == 0 {
		return nil
	}
	return m.Params[0].Value
}

// ParamValue returns the named parameter's value.
func (m *DecodedMessage) ParamValue(name string) (any, bool) {
	for _, p := range m.Params {
		if p.Name == name {
			return p.Value, true
		}
	}
	return nil, false
}

// DecodeEnvelope parses a SOAP envelope from XML text and constructs
// the application objects it carries. This is the full cache-miss path:
// tokenization plus deserialization. Envelopes using Axis-style
// multi-reference encoding (href="#id") are detected and routed
// through a structural resolution pre-pass.
func (c *Codec) DecodeEnvelope(doc []byte) (*DecodedMessage, error) {
	if hasHref(doc) {
		return c.decodeMultiRefDoc(doc)
	}
	d := newEnvelopeDecoder(c.reg)
	return d.decode(doc, d)
}

// decode parses doc through h, a handler that hands d every event, and
// returns d's message.
func (d *envelopeDecoder) decode(doc []byte, h sax.Handler) (*DecodedMessage, error) {
	if err := sax.Parse(doc, h); err != nil {
		return nil, fmt.Errorf("soap: decode: %w", err)
	}
	return d.message()
}

// DecodeEnvelopeEvents constructs application objects from a recorded
// SAX event sequence. This is the cache-hit path for the "SAX events
// sequence" representation: no tokenization, only replay and
// deserialization.
func (c *Codec) DecodeEnvelopeEvents(events []sax.Event) (*DecodedMessage, error) {
	if eventsHaveHref(events) {
		return c.decodeMultiRefEvents(events)
	}
	d := newEnvelopeDecoder(c.reg)
	if err := sax.Replay(events, d); err != nil {
		return nil, fmt.Errorf("soap: decode events: %w", err)
	}
	return d.message()
}

// DecodeHandler is the streaming deserializer exposed as a sax.Handler,
// for callers that drive it from their own event source (a parse, a
// replay or a DOM walk).
type DecodeHandler struct {
	d *envelopeDecoder
}

// NewDecodeHandler returns a fresh streaming deserializer.
func (c *Codec) NewDecodeHandler() *DecodeHandler {
	return &DecodeHandler{d: newEnvelopeDecoder(c.reg)}
}

// Handler returns the sax.Handler to drive.
func (h *DecodeHandler) Handler() sax.Handler { return h.d }

// Message returns the decoded message after the event stream has been
// fully delivered.
func (h *DecodeHandler) Message() (*DecodedMessage, error) { return h.d.message() }

// decoder states.
type decodeState int

const (
	stateStart decodeState = iota
	stateEnvelope
	stateHeader
	stateBody
	stateParams
	stateFault
	stateAfterBody
	stateDone
)

// fkind classifies a value frame under construction.
type fkind int

const (
	fSimple fkind = iota + 1
	fBytes
	fStruct
	fArray
	fNil
)

// frame is one value element being decoded. The decoder's stack holds
// frames by value and reuses them, buffers included, from one element
// to the next.
type frame struct {
	name   string // element local name
	kind   fkind
	goType reflect.Type // target Go type (element type for fBytes)
	// text is the element's character data when it arrived as one
	// event, the usual case; further events append to buf.
	text     string
	buf      []byte
	ptr      reflect.Value // fStruct: *T under construction
	info     *typemap.TypeInfo
	items    []reflect.Value // fArray
	itemNil  []bool          // fArray: per-item nil flags
	itemType reflect.Type    // fArray declared item type (may be nil)
	// appendItem marks a literal-style repeated element: the frame is
	// one item of a slice-typed struct field and appends on assignment.
	appendItem bool
}

// envelopeDecoder is the streaming deserializer. It maintains its own
// prefix-binding stack (fed by the xmlns declarations passed through in
// the event stream) because xsi:type attribute *values* are prefixed
// QNames that must be resolved against in-scope bindings.
type envelopeDecoder struct {
	reg   *typemap.Registry
	state decodeState

	// prefix bindings, parallel stacks as in the SAX parser.
	bindings []prefixBinding
	frames   []int

	headerDepth int
	wrapper     sax.Name
	params      []Param
	stack       []frame

	fault      *Fault
	faultField string
	faultDepth int
	faultText  strings.Builder

	err error

	// observer, when set, is told where each finished value frame went;
	// an envelope memo learns its field plan from these decisions
	// (memo.go). It is nil on every other path.
	observer frameObserver
}

// frameObserver watches the decoder place finished value frames.
type frameObserver interface {
	// placed reports that the frame just popped went to step of its
	// parent: a struct field index, an array item index, or (at the top
	// of the stack) a parameter index. item is the index it was appended
	// at in a slice-typed field, or -1.
	placed(step, item int)
}

type prefixBinding struct {
	prefix string
	uri    string
}

var _ sax.Handler = (*envelopeDecoder)(nil)

func newEnvelopeDecoder(reg *typemap.Registry) *envelopeDecoder {
	return &envelopeDecoder{reg: reg}
}

// message returns the decoded message after a successful parse.
func (d *envelopeDecoder) message() (*DecodedMessage, error) {
	if d.err != nil {
		return nil, d.err
	}
	if d.state != stateDone {
		return nil, fmt.Errorf("soap: truncated envelope (state %d)", d.state)
	}
	return &DecodedMessage{Wrapper: d.wrapper, Params: d.params, Fault: d.fault}, nil
}

// OnStartDocument implements sax.Handler.
func (d *envelopeDecoder) OnStartDocument() error { return nil }

// OnEndDocument implements sax.Handler.
func (d *envelopeDecoder) OnEndDocument() error {
	if d.state != stateDone {
		return fmt.Errorf("soap: document ended before envelope closed")
	}
	return nil
}

// OnComment implements sax.Handler.
func (d *envelopeDecoder) OnComment(string) error { return nil }

// OnProcInst implements sax.Handler.
func (d *envelopeDecoder) OnProcInst(string, string) error { return nil }

// pushBindings registers xmlns declarations carried on a start tag.
func (d *envelopeDecoder) pushBindings(attrs []sax.Attribute) {
	added := 0
	for _, a := range attrs {
		switch {
		case a.Name.Prefix == "" && a.Name.Local == "xmlns":
			d.bindings = append(d.bindings, prefixBinding{prefix: "", uri: a.Value})
			added++
		case a.Name.Prefix == "xmlns":
			d.bindings = append(d.bindings, prefixBinding{prefix: a.Name.Local, uri: a.Value})
			added++
		}
	}
	d.frames = append(d.frames, added)
}

// popBindings closes the scope of an end tag.
func (d *envelopeDecoder) popBindings() {
	if len(d.frames) == 0 {
		return
	}
	n := d.frames[len(d.frames)-1]
	d.frames = d.frames[:len(d.frames)-1]
	d.bindings = d.bindings[:len(d.bindings)-n]
}

// resolveRef resolves a prefixed reference such as "xsd:string" from an
// attribute value against the in-scope bindings.
func (d *envelopeDecoder) resolveRef(ref string) (typemap.QName, error) {
	prefix, local := "", ref
	if i := strings.IndexByte(ref, ':'); i >= 0 {
		prefix, local = ref[:i], ref[i+1:]
	}
	for i := len(d.bindings) - 1; i >= 0; i-- {
		if d.bindings[i].prefix == prefix {
			return typemap.QName{Space: d.bindings[i].uri, Local: local}, nil
		}
	}
	if prefix == "" {
		return typemap.QName{Local: local}, nil
	}
	return typemap.QName{}, fmt.Errorf("soap: undeclared prefix %q in reference %q", prefix, ref)
}

// attrValue finds a namespace-qualified attribute.
func attrValue(attrs []sax.Attribute, space, local string) (string, bool) {
	for _, a := range attrs {
		if a.Name.Space == space && a.Name.Local == local {
			return a.Value, true
		}
	}
	return "", false
}

// OnStartElement implements sax.Handler: the state machine's main
// dispatch.
func (d *envelopeDecoder) OnStartElement(name sax.Name, attrs []sax.Attribute) error {
	d.pushBindings(attrs)
	switch d.state {
	case stateStart:
		if name.Space != EnvNS || name.Local != "Envelope" {
			return fmt.Errorf("soap: root element %s is not a SOAP 1.1 envelope", name)
		}
		d.state = stateEnvelope
		return nil

	case stateEnvelope:
		switch {
		case name.Space == EnvNS && name.Local == "Header":
			d.state = stateHeader
			d.headerDepth = 1
		case name.Space == EnvNS && name.Local == "Body":
			d.state = stateBody
		default:
			return fmt.Errorf("soap: unexpected element %s in envelope", name)
		}
		return nil

	case stateHeader:
		d.headerDepth++
		return nil

	case stateBody:
		if name.Space == EnvNS && name.Local == "Fault" {
			d.state = stateFault
			d.fault = &Fault{}
			d.faultDepth = 1
			return nil
		}
		d.wrapper = name
		d.state = stateParams
		return nil

	case stateParams:
		return d.startValue(name, attrs)

	case stateFault:
		d.faultDepth++
		if d.faultDepth == 2 {
			d.faultField = name.Local
			d.faultText.Reset()
		}
		return nil

	default:
		return fmt.Errorf("soap: unexpected element %s after body", name)
	}
}

// OnEndElement implements sax.Handler.
func (d *envelopeDecoder) OnEndElement(name sax.Name) error {
	defer d.popBindings()
	switch d.state {
	case stateHeader:
		d.headerDepth--
		if d.headerDepth == 0 {
			d.state = stateEnvelope
		}
		return nil

	case stateBody:
		// </Body> with no wrapper seen (empty body) or after wrapper.
		if name.Space == EnvNS && name.Local == "Body" {
			d.state = stateAfterBody
		}
		return nil

	case stateParams:
		if len(d.stack) == 0 {
			// End of the wrapper element.
			d.state = stateBody
			return nil
		}
		return d.endValue()

	case stateFault:
		d.faultDepth--
		if d.faultDepth == 1 {
			switch d.faultField {
			case "faultcode":
				d.fault.Code = strings.TrimSpace(d.faultText.String())
			case "faultstring":
				d.fault.String = d.faultText.String()
			case "faultactor":
				d.fault.Actor = strings.TrimSpace(d.faultText.String())
			case "detail":
				d.fault.Detail = d.faultText.String()
			}
			d.faultField = ""
		}
		if d.faultDepth == 0 {
			d.state = stateBody
		}
		return nil

	case stateAfterBody:
		if name.Space == EnvNS && name.Local == "Envelope" {
			d.state = stateDone
		}
		return nil

	default:
		return fmt.Errorf("soap: unexpected end element %s", name)
	}
}

// OnCharacters implements sax.Handler.
func (d *envelopeDecoder) OnCharacters(text string) error {
	switch d.state {
	case stateParams:
		if len(d.stack) == 0 {
			return nil
		}
		top := &d.stack[len(d.stack)-1]
		if top.kind == fSimple || top.kind == fBytes {
			top.addText(text)
		}
		return nil
	case stateFault:
		if d.faultField != "" {
			d.faultText.WriteString(text)
		}
		return nil
	default:
		return nil
	}
}

// startValue opens a value frame for an element inside the rpc wrapper.
func (d *envelopeDecoder) startValue(name sax.Name, attrs []sax.Attribute) error {
	// The parent context's expectation, read before the push.
	expected := d.expectedType(name.Local)
	f := d.push()
	f.name = name.Local

	if v, ok := attrValue(attrs, InstanceNS, "nil"); ok && (v == "true" || v == "1") {
		f.kind = fNil
		return nil
	}

	// Determine the target type: explicit xsi:type wins; otherwise the
	// expectation from the parent context (struct field or array item).
	ref, ok := attrValue(attrs, InstanceNS, "type")
	if !ok {
		if expected != nil {
			return d.frameFromGoType(f, expected)
		}
		// No declaration at all: decode as string.
		f.kind = fSimple
		f.goType = reflect.TypeOf("")
		return nil
	}
	q, err := d.resolveRef(ref)
	if err != nil {
		return err
	}
	return d.frameFromQName(f, q, attrs)
}

// push opens a frame on the stack, reusing the buffers of the frame
// that last occupied its slot.
func (d *envelopeDecoder) push() *frame {
	if len(d.stack) == cap(d.stack) {
		d.stack = append(d.stack, frame{})
	} else {
		d.stack = d.stack[:len(d.stack)+1]
	}
	f := &d.stack[len(d.stack)-1]
	*f = frame{buf: f.buf[:0], items: f.items[:0], itemNil: f.itemNil[:0]}
	return f
}

// addText appends one character-data event to the frame's text.
func (f *frame) addText(text string) {
	if f.text == "" && len(f.buf) == 0 {
		f.text = text
		return
	}
	if len(f.buf) == 0 {
		f.buf = append(f.buf, f.text...)
	}
	f.buf = append(f.buf, text...)
}

// content returns the frame's character data.
func (f *frame) content() string {
	if len(f.buf) > 0 {
		return string(f.buf)
	}
	return f.text
}

// expectedType returns the Go type the parent context declares for a
// child element, or nil.
func (d *envelopeDecoder) expectedType(childName string) reflect.Type {
	if len(d.stack) == 0 {
		return nil
	}
	parent := &d.stack[len(d.stack)-1]
	switch parent.kind {
	case fStruct:
		for _, fld := range parent.info.Fields {
			if fld.XMLName == childName {
				return fld.Type
			}
		}
	case fArray:
		return parent.itemType
	}
	return nil
}

// frameFromQName configures a frame from an xsi:type QName.
func (d *envelopeDecoder) frameFromQName(f *frame, q typemap.QName, attrs []sax.Attribute) error {
	// SOAP-encoded array?
	if q.Space == EncNS && q.Local == "Array" {
		f.kind = fArray
		if ref, ok := attrValue(attrs, EncNS, "arrayType"); ok {
			base := strings.TrimSpace(ref)
			if i := strings.IndexByte(base, '['); i >= 0 {
				base = base[:i]
			}
			itemQ, err := d.resolveRef(base)
			if err != nil {
				return err
			}
			it, _, err := d.goTypeFor(itemQ)
			if err != nil {
				return fmt.Errorf("soap: array %s: %w", f.name, err)
			}
			f.itemType = it
		}
		return nil
	}

	t, kind, err := d.goTypeFor(q)
	if err != nil {
		return fmt.Errorf("soap: element %s: %w", f.name, err)
	}
	f.goType = t
	f.kind = kind
	if kind == fStruct {
		f.ptr = reflect.New(t)
		f.info = d.reg.InfoForType(t)
	}
	return nil
}

// frameFromGoType configures a frame from an expected Go type when no
// xsi:type is present.
func (d *envelopeDecoder) frameFromGoType(f *frame, t reflect.Type) error {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.String, reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		f.kind = fSimple
		f.goType = t
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			f.kind = fBytes
			f.goType = t
			return nil
		}
		// A slice-typed expectation without explicit enc:Array typing
		// is a literal-style repeated element: this element is ONE item
		// of the slice, appended on assignment.
		f.appendItem = true
		return d.frameFromGoType(f, t.Elem())
	case reflect.Struct:
		f.kind = fStruct
		f.goType = t
		f.ptr = reflect.New(t)
		f.info = d.reg.InfoForType(t)
	default:
		return fmt.Errorf("soap: cannot decode into %s", t)
	}
	return nil
}

// goTypeFor maps an XML type QName to a Go type and frame kind.
func (d *envelopeDecoder) goTypeFor(q typemap.QName) (reflect.Type, fkind, error) {
	if q.Space == SchemaNS || q.Space == EncNS {
		switch q.Local {
		case "string", "anyURI", "dateTime", "QName":
			return reflect.TypeOf(""), fSimple, nil
		case "boolean":
			return reflect.TypeOf(false), fSimple, nil
		case "int", "integer":
			return reflect.TypeOf(int(0)), fSimple, nil
		case "long":
			return reflect.TypeOf(int64(0)), fSimple, nil
		case "short":
			return reflect.TypeOf(int16(0)), fSimple, nil
		case "byte":
			return reflect.TypeOf(int8(0)), fSimple, nil
		case "unsignedInt":
			return reflect.TypeOf(uint(0)), fSimple, nil
		case "unsignedLong":
			return reflect.TypeOf(uint64(0)), fSimple, nil
		case "float":
			return reflect.TypeOf(float32(0)), fSimple, nil
		case "double", "decimal":
			return reflect.TypeOf(float64(0)), fSimple, nil
		case "base64Binary":
			return reflect.TypeOf([]byte(nil)), fBytes, nil
		}
	}
	if t, ok := d.reg.TypeFor(q); ok {
		return t, fStruct, nil
	}
	return nil, 0, fmt.Errorf("unknown type %s", q)
}

// endValue finalizes the top frame and assigns it into its parent.
func (d *envelopeDecoder) endValue() error {
	// f stays valid after the pop: nothing is pushed before it is used.
	f := &d.stack[len(d.stack)-1]
	d.stack = d.stack[:len(d.stack)-1]

	v, isNil, err := d.finalize(f)
	if err != nil {
		return err
	}

	if len(d.stack) == 0 {
		// Direct child of the rpc wrapper: a parameter.
		var val any
		if !isNil {
			val = paramInterface(f, v)
		}
		if d.observer != nil {
			d.observer.placed(len(d.params), -1)
		}
		d.params = append(d.params, Param{Name: f.name, Value: val})
		return nil
	}

	parent := &d.stack[len(d.stack)-1]
	switch parent.kind {
	case fStruct:
		for _, fld := range parent.info.Fields {
			if fld.XMLName == f.name {
				dst := parent.ptr.Elem().Field(fld.Index)
				if isNil {
					return nil // leave zero
				}
				if f.appendItem && dst.Kind() == reflect.Slice {
					if d.observer != nil {
						d.observer.placed(fld.Index, dst.Len())
					}
					item := reflect.New(dst.Type().Elem()).Elem()
					if err := assign(item, v); err != nil {
						return fmt.Errorf("soap: element %s item: %w", f.name, err)
					}
					dst.Set(reflect.Append(dst, item))
					return nil
				}
				if d.observer != nil {
					d.observer.placed(fld.Index, -1)
				}
				return assign(dst, v)
			}
		}
		// Unknown field: tolerated and dropped, as a lenient processor.
		return nil
	case fArray:
		if d.observer != nil {
			d.observer.placed(len(parent.items), -1)
		}
		parent.items = append(parent.items, v)
		parent.itemNil = append(parent.itemNil, isNil)
		return nil
	default:
		return fmt.Errorf("soap: element %s nested inside simple value %s", f.name, parent.name)
	}
}

// paramInterface converts a finalized frame value to the any exposed in
// Params: struct results are exposed as pointers (application objects
// are passed by reference in Go, by copy on the wire).
func paramInterface(f *frame, v reflect.Value) any {
	if f.kind == fStruct {
		return f.ptr.Interface()
	}
	return v.Interface()
}

// finalize converts a frame's accumulated state into a reflect.Value.
func (d *envelopeDecoder) finalize(f *frame) (reflect.Value, bool, error) {
	switch f.kind {
	case fNil:
		return reflect.Value{}, true, nil
	case fSimple:
		v, err := parseSimple(f.goType, f.content())
		if err != nil {
			return reflect.Value{}, false, fmt.Errorf("soap: element %s: %w", f.name, err)
		}
		return v, false, nil
	case fBytes:
		data, err := decodeBytes(f.content())
		if err != nil {
			return reflect.Value{}, false, fmt.Errorf("soap: element %s: invalid base64: %w", f.name, err)
		}
		return reflect.ValueOf(data), false, nil
	case fStruct:
		return f.ptr.Elem(), false, nil
	case fArray:
		it := f.itemType
		if it == nil {
			if len(f.items) > 0 {
				it = f.items[0].Type()
			} else {
				it = reflect.TypeOf((*any)(nil)).Elem()
			}
		}
		slice := reflect.MakeSlice(reflect.SliceOf(it), len(f.items), len(f.items))
		for i, item := range f.items {
			if f.itemNil[i] {
				continue
			}
			if err := assign(slice.Index(i), item); err != nil {
				return reflect.Value{}, false, fmt.Errorf("soap: array %s[%d]: %w", f.name, i, err)
			}
		}
		return slice, false, nil
	default:
		return reflect.Value{}, false, fmt.Errorf("soap: internal: unfinalizable frame %s", f.name)
	}
}

// assign stores src into the settable dst, handling pointer targets and
// safe conversions.
func assign(dst reflect.Value, src reflect.Value) error {
	if dst.Kind() == reflect.Pointer {
		p := reflect.New(dst.Type().Elem())
		if err := assign(p.Elem(), src); err != nil {
			return err
		}
		dst.Set(p)
		return nil
	}
	if dst.Kind() == reflect.Interface {
		dst.Set(src)
		return nil
	}
	if src.Type().AssignableTo(dst.Type()) {
		dst.Set(src)
		return nil
	}
	if src.Type().ConvertibleTo(dst.Type()) && convertSafe(src.Type(), dst.Type()) {
		dst.Set(src.Convert(dst.Type()))
		return nil
	}
	return fmt.Errorf("cannot assign %s to %s", src.Type(), dst.Type())
}

// convertSafe limits reflect conversions to numeric/string widenings
// the codec intends, keeping surprising conversions (e.g. int→string)
// out.
func convertSafe(src, dst reflect.Type) bool {
	num := func(k reflect.Kind) bool {
		switch k {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			return true
		}
		return false
	}
	if num(src.Kind()) && num(dst.Kind()) {
		return true
	}
	if src.Kind() == reflect.String && dst.Kind() == reflect.String {
		return true
	}
	if src.Kind() == reflect.Slice && dst.Kind() == reflect.Slice {
		return src.Elem().Kind() == reflect.Uint8 && dst.Elem().Kind() == reflect.Uint8
	}
	return false
}

// parseSimple converts element text to the target simple type.
func parseSimple(t reflect.Type, text string) (reflect.Value, error) {
	switch t.Kind() {
	case reflect.String:
		return reflect.ValueOf(text).Convert(t), nil
	case reflect.Bool:
		b, err := parseBool(text)
		if err != nil {
			return reflect.Value{}, err
		}
		return reflect.ValueOf(b).Convert(t), nil
	}
	v := reflect.New(t).Elem()
	if err := setSimple(v, text); err != nil {
		return reflect.Value{}, err
	}
	return v, nil
}

// setSimple parses element text into v, a settable value of a simple
// type, with parseSimple's rules: surrounding space is trimmed from
// non-strings, empty text is zero, and an integer that overflows v's
// type is an error.
func setSimple(v reflect.Value, text string) error {
	switch v.Kind() {
	case reflect.String:
		v.SetString(text)
	case reflect.Bool:
		b, err := parseBool(text)
		if err != nil {
			return err
		}
		v.SetBool(b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		s := numberText(text)
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("invalid integer %q", s)
		}
		if v.OverflowInt(n) {
			return fmt.Errorf("integer %q overflows %s", s, v.Type())
		}
		v.SetInt(n)
	case reflect.Uint, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		s := numberText(text)
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return fmt.Errorf("invalid unsigned integer %q", s)
		}
		if v.OverflowUint(n) {
			return fmt.Errorf("unsigned %q overflows %s", s, v.Type())
		}
		v.SetUint(n)
	case reflect.Float32, reflect.Float64:
		s := numberText(text)
		fv, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("invalid float %q", s)
		}
		v.SetFloat(fv)
	default:
		return fmt.Errorf("not a simple type: %s", v.Type())
	}
	return nil
}

// parseBool reads an xsd:boolean.
func parseBool(text string) (bool, error) {
	switch s := strings.TrimSpace(text); s {
	case "true", "1":
		return true, nil
	case "false", "0", "":
		return false, nil
	default:
		return false, fmt.Errorf("invalid boolean %q", s)
	}
}

// numberText trims a number's text; empty text reads as zero.
func numberText(text string) string {
	if s := strings.TrimSpace(text); s != "" {
		return s
	}
	return "0"
}

// decodeBytes reads xsd:base64Binary text, ignoring XML whitespace.
func decodeBytes(text string) ([]byte, error) {
	return base64.StdEncoding.DecodeString(strings.Map(dropSpace, text))
}

// dropSpace removes XML whitespace from base64 text.
func dropSpace(r rune) rune {
	switch r {
	case ' ', '\t', '\r', '\n':
		return -1
	}
	return r
}
