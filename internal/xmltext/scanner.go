package xmltext

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Scanner tokenizes an XML document held in memory. It is a pull
// scanner: each call to Next returns the next token or an error.
//
// The scanner operates on a byte slice rather than an io.Reader because
// the middleware always has the complete message in memory (it arrived
// as an HTTP body); this keeps the hot parse path allocation-light.
//
// Every token's strings are owned copies, never views of the source. A
// Scanner that is Reset for each document also keeps a table of the
// names and short attribute values it has seen, so one repeated within
// or across documents is not allocated again; a Scanner made for one
// document and never Reset has no table.
type Scanner struct {
	src []byte
	pos int

	// open tracks the stack of currently open element names so that
	// mismatched or unclosed tags are reported as syntax errors.
	open []qname

	// sawRoot reports whether a root element has been seen; used to
	// reject documents with multiple roots or trailing garbage.
	sawRoot bool

	// pendingEnd holds an end-element to emit for a self-closing tag.
	pendingEnd qname
	hasPending bool

	// attrs backs Token.Attrs, reused from one start tag to the next.
	attrs []Attr

	// names interns names and short attribute values; nil until the
	// first Reset.
	names *internTable
}

// qname is an element name with the index of its colon (0 for none).
type qname struct {
	name  string
	colon int32
}

// maxReuse bounds the open-element and attribute buffers Reset keeps:
// a hostile document that grew one past it does not pin the memory
// for the scanner's later documents.
const maxReuse = 256

// Reset readies the scanner to read src from its beginning, keeping
// its buffers and its intern table (made on the first Reset). Reset(nil)
// drops the scanner's reference to the previous document.
func (s *Scanner) Reset(src []byte) {
	if s.names == nil {
		s.names = new(internTable)
	}
	*s = Scanner{src: src, open: reuse(s.open), attrs: reuse(s.attrs), names: s.names}
}

// reuse empties buf for the next document, clearing the strings it
// still references; a buffer grown past maxReuse is dropped instead.
func reuse[T any](buf []T) []T {
	if cap(buf) > maxReuse {
		return nil
	}
	clear(buf[:cap(buf)])
	return buf[:0]
}

// str returns b as a string, through the intern table when the scanner
// has one.
func (s *Scanner) str(b []byte) string {
	if s.names == nil {
		return string(b)
	}
	return s.names.intern(b)
}

// errf builds a syntax error at the current offset. The line is counted
// here, from the offset, so the scanning loops never track it.
func (s *Scanner) errf(format string, args ...any) error {
	return &syntaxError{
		Msg:    strings.TrimSpace(fmt.Sprintf(format, args...)),
		Offset: s.pos,
		Line:   1 + bytes.Count(s.src[:s.pos], []byte{'\n'}),
	}
}

// Next returns the next token in the document. It returns io.EOF after
// the document has been fully consumed. Whitespace-only character data
// outside the root element is skipped; any other content outside the
// root is an error.
func (s *Scanner) Next() (Token, error) {
	if s.hasPending {
		s.hasPending = false
		end := s.pendingEnd
		s.pendingEnd = qname{}
		return Token{Kind: KindEndElement, Name: end.name, colon: end.colon}, nil
	}

	for {
		if s.pos >= len(s.src) {
			if len(s.open) > 0 {
				return Token{}, s.errf("unexpected end of document: element <%s> is not closed", s.open[len(s.open)-1].name)
			}
			if !s.sawRoot {
				return Token{}, s.errf("document has no root element")
			}
			return Token{}, io.EOF
		}

		if s.src[s.pos] != '<' {
			text, err := s.scanText(0, "")
			if err != nil {
				return Token{}, err
			}
			// Outside the root element only whitespace is allowed;
			// swallow it rather than reporting it as an event.
			if len(s.open) == 0 {
				if !isAllSpace(text) {
					return Token{}, s.errf("character data outside root element")
				}
				continue
			}
			return Token{Kind: KindCharData, Text: text}, nil
		}

		// A markup construct begins.
		if s.pos+1 >= len(s.src) {
			return Token{}, s.errf("unexpected end of document after '<'")
		}
		switch s.src[s.pos+1] {
		case '?':
			return s.scanProcInst()
		case '!':
			return s.scanBang()
		case '/':
			return s.scanEndElement()
		default:
			return s.scanStartElement()
		}
	}
}

// skipSpace consumes XML whitespace.
func (s *Scanner) skipSpace() {
	for s.pos < len(s.src) && class[s.src[s.pos]]&cSpace != 0 {
		s.pos++
	}
}

// scanText reads character data up to the next '<' (quote 0), the body
// of a CDATA section up to its "]]>" (quote ']') or an attribute value
// up to its closing quote byte, and leaves the scanner on the
// terminator. Plain ASCII runs are skipped with one table lookup a
// byte, up to a byte that needs a look. References are resolved and
// line ends normalised (XML 1.0 §2.11) into a builder sized for the
// rest of the value; a plain value is copied out of the source in one
// piece, through the intern table for an attribute value. Every
// character must match the Char production (§2.2), so control
// characters, U+FFFE/U+FFFF and invalid UTF-8 are errors. attr names
// the attribute in error messages.
func (s *Scanner) scanText(quote byte, attr string) (string, error) {
	src := s.src
	stop, term := uint8(cTextStop), byte('<')
	switch quote {
	case '"', '\'':
		stop, term = cAttrStop, quote
	case ']':
		stop, term = cCDATAStop, '>'
	}
	start, i := s.pos, s.pos
	var b strings.Builder
	mark := -1 // once b is in use, src[mark:i] is not yet copied to it
loop:
	for {
		for i < len(src) && class[src[i]]&stop == 0 {
			i++
		}
		if i >= len(src) {
			switch quote {
			case 0:
				break loop
			case ']':
				s.pos = start
				return "", s.errf("unterminated CDATA section")
			}
			s.pos = i
			return "", s.errf("unterminated value for attribute %q", attr)
		}
		switch c := src[i]; {
		case c == quote && stop == cAttrStop, c == '<' && quote == 0:
			break loop
		case c == '<':
			s.pos = i
			return "", s.errf("'<' not allowed in attribute value of %q", attr)
		case c == '"', c == '\'':
			i++ // the other quote, inside an attribute value
		case c == ']':
			// The literal "]]>" ends a CDATA section and may not appear
			// in character data (§2.4); the escaped "]]&gt;" is legal.
			if i+2 < len(src) && src[i+1] == ']' && src[i+2] == '>' {
				if quote == ']' {
					break loop
				}
				s.pos = i
				return "", s.errf("']]>' not allowed in character data")
			}
			i++
		case c == '&', c == '\r':
			if mark < 0 {
				// Size the buffer once, for the value up to its
				// terminator at most.
				n := bytes.IndexByte(src[i:], term)
				if n < 0 {
					n = len(src) - i
				}
				b.Grow(i - start + n)
				mark = start
			}
			b.Write(src[mark:i])
			if s.pos = i; c == '\r' {
				b.WriteByte('\n')
				if s.pos++; s.pos < len(src) && src[s.pos] == '\n' {
					s.pos++
				}
			} else if err := s.scanReference(&b); err != nil {
				return "", err
			}
			i, mark = s.pos, s.pos
		default:
			r, size := utf8.DecodeRune(src[i:])
			if (r == utf8.RuneError && size == 1) || !isLegalCharRef(r) {
				s.pos = i
				if size == 1 && c >= utf8.RuneSelf {
					return "", s.errf("invalid UTF-8")
				}
				return "", s.errf("illegal character %U", r)
			}
			i += size
		}
	}
	s.pos = i
	switch {
	case mark >= 0:
		b.Write(src[mark:i])
		return b.String(), nil
	case stop == cAttrStop:
		return s.str(src[start:i]), nil
	}
	return string(src[start:i]), nil
}

// scanReference resolves the entity or character reference at the
// current '&', writes its replacement text to b and moves past it.
func (s *Scanner) scanReference(b *strings.Builder) error {
	src := s.src
	if s.pos+1 < len(src) && src[s.pos+1] == '#' {
		return s.scanCharRef(b)
	}
	semi := bytes.IndexByte(src[s.pos+1:min(len(src), s.pos+13)], ';')
	if semi < 0 {
		return s.errf("unterminated entity reference")
	}
	ref := src[s.pos+1 : s.pos+1+semi]
	s.pos += semi + 2
	var c byte
	switch string(ref) {
	case "lt":
		c = '<'
	case "gt":
		c = '>'
	case "amp":
		c = '&'
	case "apos":
		c = '\''
	case "quot":
		c = '"'
	case "":
		return s.errf("empty entity reference")
	default:
		return s.errf("unknown entity &%s;", ref)
	}
	b.WriteByte(c)
	return nil
}

// scanCharRef resolves a character reference, "&#60;" or "&#x3C;"
// (§4.1: decimal digits, or hex digits after a lower-case 'x').
func (s *Scanner) scanCharRef(b *strings.Builder) error {
	src := s.src
	i, base, digit := s.pos+2, 10, uint8(cDigit)
	if i < len(src) && src[i] == 'x' {
		i, base, digit = i+1, 16, cHexDigit
	}
	digits := i
	for i < len(src) && class[src[i]]&digit != 0 {
		i++
	}
	if i == digits || i >= len(src) || src[i] != ';' {
		return s.errf("malformed character reference &%s", src[s.pos+1:i])
	}
	ref := src[s.pos+1 : i]
	s.pos = i + 1
	n, err := strconv.ParseUint(string(src[digits:i]), base, 32)
	if err != nil || !isLegalCharRef(rune(n)) {
		return s.errf("character reference &%s; is not a legal XML character", ref)
	}
	b.WriteRune(rune(n))
	return nil
}

// scanProcInst scans <?target body?>. The XML declaration is reported
// as a ProcInst with target "xml".
func (s *Scanner) scanProcInst() (Token, error) {
	s.pos += 2 // <?
	raw, _, err := s.scanName()
	if err != nil {
		return Token{}, err
	}
	name := s.str(raw)
	target := s.pos
	s.skipSpace()
	end := s.pos + bytes.Index(s.src[s.pos:], []byte("?>"))
	if end < s.pos {
		return Token{}, s.errf("unterminated processing instruction <?%s", name)
	}
	if s.pos == target && end != s.pos {
		return Token{}, s.errf("processing instruction <?%s needs a space before its body", name)
	}
	// The body goes through the intern table too: the XML declaration
	// repeats in every document.
	body := s.str(s.src[s.pos:end])
	s.pos = end + 2
	return Token{Kind: KindProcInst, Name: name, Text: body}, nil
}

// scanBang scans constructs that begin with "<!": comments, CDATA
// sections, and directives such as DOCTYPE.
func (s *Scanner) scanBang() (Token, error) {
	rest := s.src[s.pos:]
	switch {
	case bytes.HasPrefix(rest, []byte("<!--")):
		return s.scanComment()
	case bytes.HasPrefix(rest, []byte("<![CDATA[")):
		return s.scanCDATA()
	case bytes.HasPrefix(rest, []byte("<!-")), bytes.HasPrefix(rest, []byte("<![")):
		return Token{}, s.errf("malformed comment or CDATA section")
	default:
		return s.scanDirective()
	}
}

// scanComment scans <!-- ... -->.
func (s *Scanner) scanComment() (Token, error) {
	s.pos += 4 // <!--
	end := s.pos + bytes.Index(s.src[s.pos:], []byte("--"))
	if end < s.pos {
		return Token{}, s.errf("unterminated comment")
	}
	if end+2 > len(s.src)-1 || s.src[end+2] != '>' {
		return Token{}, s.errf("'--' not allowed inside comment")
	}
	body := string(s.src[s.pos:end])
	s.pos = end + 3
	return Token{Kind: KindComment, Text: body}, nil
}

// scanCDATA scans <![CDATA[ ... ]]> and reports it as character data.
// CDATA outside the root element is rejected by Next.
func (s *Scanner) scanCDATA() (Token, error) {
	s.pos += 9 // <![CDATA[
	body, err := s.scanText(']', "")
	if err != nil {
		return Token{}, err
	}
	s.pos += 3 // ]]>
	if len(s.open) == 0 {
		return Token{}, s.errf("CDATA section outside root element")
	}
	return Token{Kind: KindCharData, Text: body}, nil
}

// scanDirective scans <! ... > directives (DOCTYPE). Internal subsets
// delimited by [ ] are skipped without interpretation.
func (s *Scanner) scanDirective() (Token, error) {
	start := s.pos + 2 // <!
	depth := 0
	for i := start; i < len(s.src); i++ {
		switch s.src[i] {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				s.pos = i + 1
				return Token{Kind: KindDirective, Text: string(s.src[start:i])}, nil
			}
		}
	}
	s.pos = len(s.src)
	return Token{}, s.errf("unterminated directive")
}

// scanStartElement scans <name attr="v" ...> or <name/>. The token's
// Attrs is the scanner's buffer, valid until the next call to Next.
func (s *Scanner) scanStartElement() (Token, error) {
	s.pos++ // <
	raw, colon, err := s.scanName()
	if err != nil {
		return Token{}, err
	}
	name := s.str(raw)
	if s.sawRoot && len(s.open) == 0 {
		return Token{}, s.errf("multiple root elements: unexpected <%s>", name)
	}
	tok := Token{Kind: KindStartElement, Name: name, colon: colon}
	s.attrs = s.attrs[:0]
	// The duplicate check searches the attributes so far, and from the
	// ninth on takes a map, so a tag with many stays linear.
	var seen map[string]bool
	for {
		s.skipSpace()
		if s.pos >= len(s.src) {
			return Token{}, s.errf("unterminated start tag <%s>", name)
		}
		switch s.src[s.pos] {
		case '>':
			s.pos++
			s.open = append(s.open, qname{name, colon})
			s.sawRoot = true
			tok.Attrs = s.tokenAttrs()
			return tok, nil
		case '/':
			if s.pos+1 >= len(s.src) || s.src[s.pos+1] != '>' {
				return Token{}, s.errf("expected '/>' in tag <%s>", name)
			}
			s.pos += 2
			tok.SelfClosing = true
			tok.Attrs = s.tokenAttrs()
			s.sawRoot = true
			// Emit the matching end element on the following Next call.
			s.pendingEnd = qname{name, colon}
			s.hasPending = true
			return tok, nil
		}
		attr, err := s.scanAttr(name)
		if err != nil {
			return Token{}, err
		}
		if len(s.attrs) == 8 {
			seen = make(map[string]bool)
			for _, a := range s.attrs {
				seen[a.Name] = true
			}
		}
		dup := seen[attr.Name]
		if seen == nil {
			dup = s.hasAttr(attr.Name)
		} else {
			seen[attr.Name] = true
		}
		if dup {
			return Token{}, s.errf("duplicate attribute %q in <%s>", attr.Name, name)
		}
		s.attrs = append(s.attrs, attr)
	}
}

// hasAttr reports whether the current start tag already has an
// attribute called name.
func (s *Scanner) hasAttr(name string) bool {
	for _, a := range s.attrs {
		if a.Name == name {
			return true
		}
	}
	return false
}

// tokenAttrs returns the attributes scanned for the current start tag,
// nil when it has none.
func (s *Scanner) tokenAttrs() []Attr {
	if len(s.attrs) == 0 {
		return nil
	}
	return s.attrs
}

// scanAttr scans a single name="value" attribute.
func (s *Scanner) scanAttr(elem string) (Attr, error) {
	raw, colon, err := s.scanName()
	if err != nil {
		return Attr{}, err
	}
	name := s.str(raw)
	s.skipSpace()
	if s.pos >= len(s.src) || s.src[s.pos] != '=' {
		return Attr{}, s.errf("attribute %q in <%s> missing '='", name, elem)
	}
	s.pos++
	s.skipSpace()
	if s.pos >= len(s.src) || (s.src[s.pos] != '"' && s.src[s.pos] != '\'') {
		return Attr{}, s.errf("attribute %q in <%s> missing quoted value", name, elem)
	}
	quote := s.src[s.pos]
	s.pos++
	val, err := s.scanText(quote, name)
	if err != nil {
		return Attr{}, err
	}
	s.pos++ // closing quote
	return Attr{Name: name, Value: val, colon: colon}, nil
}

// scanEndElement scans </name>. The name is compared in place with the
// open element's, and the token carries the open element's string.
func (s *Scanner) scanEndElement() (Token, error) {
	s.pos += 2 // </
	name, _, err := s.scanName()
	if err != nil {
		return Token{}, err
	}
	s.skipSpace()
	if s.pos >= len(s.src) || s.src[s.pos] != '>' {
		return Token{}, s.errf("malformed end tag </%s", name)
	}
	s.pos++
	if len(s.open) == 0 {
		return Token{}, s.errf("unexpected end tag </%s>", name)
	}
	top := s.open[len(s.open)-1]
	if top.name != string(name) {
		return Token{}, s.errf("end tag </%s> does not match open element <%s>", name, top.name)
	}
	s.open = s.open[:len(s.open)-1]
	return Token{Kind: KindEndElement, Name: top.name, colon: top.colon}, nil
}

// scanName scans a QName (Namespaces in XML §3: an XML name with at
// most one colon, neither first nor last) and returns its bytes in the
// source with the index of its colon, 0 when it has none. ASCII name
// bytes are taken by table lookup; only bytes >= 0x80 are decoded and
// checked against the NameChar production.
func (s *Scanner) scanName() ([]byte, int32, error) {
	src := s.src
	start, i := s.pos, s.pos
	colon, colons := int32(0), 0
	for {
		for i < len(src) && class[src[i]]&cName != 0 {
			i++
		}
		if i >= len(src) {
			break
		}
		if c := src[i]; c == ':' {
			colon, colons = int32(i-start), colons+1
			i++
			continue
		} else if c < utf8.RuneSelf {
			break
		}
		r, size := utf8.DecodeRune(src[i:])
		if (r == utf8.RuneError && size == 1) || !isNameRune(r) {
			break
		}
		i += size
	}
	if i == start || (class[src[start]]&cNameStart == 0 && src[start] != ':') {
		if start >= len(src) {
			return nil, 0, s.errf("expected name")
		}
		if r, _ := utf8.DecodeRune(src[start:]); i == start || !isNameStartRune(r) {
			return nil, 0, s.errf("invalid name start character %q", r)
		}
	}
	name := src[start:i]
	if colons > 1 || (colons == 1 && (colon == 0 || int(colon) == len(name)-1)) {
		return nil, 0, s.errf("%q is not a QName: a colon must separate two names", name)
	}
	s.pos = i
	return name, colon, nil
}

// internMax is the longest string the intern table holds; longer ones
// are allocated per token, so no document can park large strings in a
// pooled scanner.
const internMax = 64

// internBits sizes the intern table: 1 << internBits slots.
const internBits = 10

// internTable is a two-way set-associative cache of the strings a
// scanner made for names, plain attribute values and
// processing-instruction bodies: a string lives in one of the two slots
// of the pair it hashes to, the one used last first, so a new string
// evicts the one used less recently.
type internTable [1 << internBits]string

// intern returns b as a string, reusing the table's copy when b's pair
// holds the same bytes.
func (t *internTable) intern(b []byte) string {
	if len(b) > internMax {
		return string(b)
	}
	pair := (*[2]string)(t[internHash(b)&^1:])
	if pair[0] == string(b) {
		return pair[0]
	}
	if pair[1] == string(b) {
		pair[0], pair[1] = pair[1], pair[0]
		return pair[0]
	}
	str := string(b)
	pair[1], pair[0] = pair[0], str
	return str
}

// internHash picks b's slot from its length and its first and last
// eight bytes, in constant time; it sees every byte of a string of up
// to 16 bytes, and a collision costs only an allocation.
func internHash(b []byte) uint64 {
	var lo, hi uint64
	if len(b) >= 8 {
		lo = binary.LittleEndian.Uint64(b)
		hi = binary.LittleEndian.Uint64(b[len(b)-8:])
	} else {
		for _, c := range b {
			lo = lo<<8 | uint64(c)
		}
	}
	h := (lo ^ (hi<<29 | hi>>35) ^ uint64(len(b))) * 0x9E3779B97F4A7C15
	return h >> (64 - internBits)
}
