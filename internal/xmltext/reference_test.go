package xmltext

// This file is the tokenizer as it stood before names were interned and
// attribute buffers reused: scanner.go's earlier text with the type
// renamed refScanner (and the shared sprintf helper left to scanner.go).
// FuzzScannerMatchesReference runs both over the same inputs and
// requires the same tokens and errors. It stays until a stdlib-backed
// oracle replaces it as the differential's reference.

import (
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// refScanner tokenizes an XML document held in memory. It is a pull
// scanner: each call to Next returns the next token or an error.
//
// The scanner operates on a byte slice rather than an io.Reader because
// the middleware always has the complete message in memory (it arrived
// as an HTTP body); this keeps the hot parse path allocation-light.
type refScanner struct {
	src  []byte
	pos  int
	line int

	// open tracks the stack of currently open element names so that
	// mismatched or unclosed tags are reported as syntax errors.
	open []string

	// sawRoot reports whether a root element has been seen; used to
	// reject documents with multiple roots or trailing garbage.
	sawRoot bool

	// pendingEnd holds an end-element to emit for a self-closing tag.
	pendingEnd string
	hasPending bool
}

// newRefScanner returns a refScanner reading the given document.
func newRefScanner(src []byte) *refScanner {
	return &refScanner{src: src, line: 1}
}

// errf builds a positioned syntax error.
func (s *refScanner) errf(format string, args ...any) error {
	return &SyntaxError{
		Msg:    strings.TrimSpace(sprintf(format, args...)),
		Offset: s.pos,
		Line:   s.line,
	}
}

// Next returns the next token in the document. It returns io.EOF after
// the document has been fully consumed. Whitespace-only character data
// outside the root element is skipped; any other content outside the
// root is an error.
func (s *refScanner) Next() (Token, error) {
	if s.hasPending {
		s.hasPending = false
		name := s.pendingEnd
		s.pendingEnd = ""
		return Token{Kind: KindEndElement, Name: name}, nil
	}

	for {
		if s.pos >= len(s.src) {
			if len(s.open) > 0 {
				return Token{}, s.errf("unexpected end of document: element <%s> is not closed", s.open[len(s.open)-1])
			}
			if !s.sawRoot {
				return Token{}, s.errf("document has no root element")
			}
			return Token{}, io.EOF
		}

		if s.src[s.pos] != '<' {
			tok, err := s.scanCharData()
			if err != nil {
				return Token{}, err
			}
			// Outside the root element only whitespace is allowed;
			// swallow it rather than reporting it as an event.
			if len(s.open) == 0 {
				if !isAllSpace(tok.Text) {
					return Token{}, s.errf("character data outside root element")
				}
				continue
			}
			return tok, nil
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

// Depth returns the number of currently open elements.
func (s *refScanner) Depth() int { return len(s.open) }

// advance moves pos forward by n bytes, updating the line counter.
func (s *refScanner) advance(n int) {
	for i := 0; i < n && s.pos < len(s.src); i++ {
		if s.src[s.pos] == '\n' {
			s.line++
		}
		s.pos++
	}
}

// skipSpace consumes XML whitespace.
func (s *refScanner) skipSpace() {
	for s.pos < len(s.src) && isSpaceByte(s.src[s.pos]) {
		if s.src[s.pos] == '\n' {
			s.line++
		}
		s.pos++
	}
}

// scanCharData scans character data up to the next '<'. Entity and
// character references are resolved. Consecutive CDATA sections are not
// merged here; the SAX layer coalesces if needed.
func (s *refScanner) scanCharData() (Token, error) {
	start := s.pos
	var b strings.Builder
	plain := true // no entities encountered; can slice instead of build
	for s.pos < len(s.src) && s.src[s.pos] != '<' {
		c := s.src[s.pos]
		if c == '&' {
			if plain {
				b.Grow(len(s.src) - start)
				b.Write(s.src[start:s.pos])
				plain = false
			}
			r, err := s.scanReference()
			if err != nil {
				return Token{}, err
			}
			b.WriteString(r)
			continue
		}
		// The literal sequence "]]>" may not appear in character data
		// (XML 1.0 §2.4); the raw bytes are checked so the escaped form
		// "]]&gt;" stays legal.
		if c == ']' && s.pos+2 < len(s.src) && s.src[s.pos+1] == ']' && s.src[s.pos+2] == '>' {
			return Token{}, s.errf("']]>' not allowed in character data")
		}
		if c == '\n' {
			s.line++
		}
		if !plain {
			b.WriteByte(c)
		}
		s.pos++
	}
	var text string
	if plain {
		text = string(s.src[start:s.pos])
	} else {
		text = b.String()
	}
	return Token{Kind: KindCharData, Text: text}, nil
}

// scanReference resolves an entity or character reference beginning at
// the current '&'.
func (s *refScanner) scanReference() (string, error) {
	semi := indexByteFrom(s.src, ';', s.pos+1)
	if semi < 0 || semi-s.pos > 12 {
		return "", s.errf("unterminated entity reference")
	}
	ref := string(s.src[s.pos+1 : semi])
	s.pos = semi + 1
	if ref == "" {
		return "", s.errf("empty entity reference")
	}
	if ref[0] == '#' {
		return s.resolveCharRef(ref)
	}
	switch ref {
	case "lt":
		return "<", nil
	case "gt":
		return ">", nil
	case "amp":
		return "&", nil
	case "apos":
		return "'", nil
	case "quot":
		return `"`, nil
	}
	return "", s.errf("unknown entity &%s;", ref)
}

// resolveCharRef resolves a numeric character reference body such as
// "#x3C" or "#60".
func (s *refScanner) resolveCharRef(ref string) (string, error) {
	body := ref[1:]
	base := 10
	if len(body) > 0 && (body[0] == 'x' || body[0] == 'X') {
		base = 16
		body = body[1:]
	}
	n, err := strconv.ParseUint(body, base, 32)
	if err != nil {
		return "", s.errf("malformed character reference &%s;", ref)
	}
	r := rune(n)
	if !isLegalCharRef(r) {
		return "", s.errf("character reference &%s; is not a legal XML character", ref)
	}
	return string(r), nil
}

// scanProcInst scans <?target body?>. The XML declaration is reported
// as a ProcInst with target "xml".
func (s *refScanner) scanProcInst() (Token, error) {
	s.advance(2) // <?
	name, err := s.scanName()
	if err != nil {
		return Token{}, err
	}
	s.skipSpace()
	end := indexFrom(s.src, "?>", s.pos)
	if end < 0 {
		return Token{}, s.errf("unterminated processing instruction <?%s", name)
	}
	body := string(s.src[s.pos:end])
	s.advance(end + 2 - s.pos)
	return Token{Kind: KindProcInst, Name: name, Text: body}, nil
}

// scanBang scans constructs that begin with "<!": comments, CDATA
// sections, and directives such as DOCTYPE.
func (s *refScanner) scanBang() (Token, error) {
	rest := s.src[s.pos:]
	switch {
	case hasPrefix(rest, "<!--"):
		return s.scanComment()
	case hasPrefix(rest, "<![CDATA["):
		return s.scanCDATA()
	default:
		return s.scanDirective()
	}
}

// scanComment scans <!-- ... -->.
func (s *refScanner) scanComment() (Token, error) {
	s.advance(4) // <!--
	end := indexFrom(s.src, "--", s.pos)
	if end < 0 {
		return Token{}, s.errf("unterminated comment")
	}
	if end+2 > len(s.src)-1 || s.src[end+2] != '>' {
		return Token{}, s.errf("'--' not allowed inside comment")
	}
	body := string(s.src[s.pos:end])
	s.advance(end + 3 - s.pos)
	return Token{Kind: KindComment, Text: body}, nil
}

// scanCDATA scans <![CDATA[ ... ]]> and reports it as character data.
// CDATA outside the root element is rejected by Next.
func (s *refScanner) scanCDATA() (Token, error) {
	s.advance(9) // <![CDATA[
	end := indexFrom(s.src, "]]>", s.pos)
	if end < 0 {
		return Token{}, s.errf("unterminated CDATA section")
	}
	body := string(s.src[s.pos:end])
	s.advance(end + 3 - s.pos)
	if len(s.open) == 0 {
		return Token{}, s.errf("CDATA section outside root element")
	}
	return Token{Kind: KindCharData, Text: body}, nil
}

// scanDirective scans <! ... > directives (DOCTYPE). Internal subsets
// delimited by [ ] are skipped without interpretation.
func (s *refScanner) scanDirective() (Token, error) {
	start := s.pos + 2
	s.advance(2) // <!
	depth := 0
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		switch c {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				body := string(s.src[start:s.pos])
				s.advance(1)
				return Token{Kind: KindDirective, Text: body}, nil
			}
		case '\n':
			s.line++
		}
		s.pos++
	}
	return Token{}, s.errf("unterminated directive")
}

// scanStartElement scans <name attr="v" ...> or <name/>.
func (s *refScanner) scanStartElement() (Token, error) {
	s.advance(1) // <
	name, err := s.scanName()
	if err != nil {
		return Token{}, err
	}
	if s.sawRoot && len(s.open) == 0 {
		return Token{}, s.errf("multiple root elements: unexpected <%s>", name)
	}
	tok := Token{Kind: KindStartElement, Name: name}
	seen := map[string]bool{}
	for {
		s.skipSpace()
		if s.pos >= len(s.src) {
			return Token{}, s.errf("unterminated start tag <%s>", name)
		}
		c := s.src[s.pos]
		if c == '>' {
			s.advance(1)
			s.open = append(s.open, name)
			s.sawRoot = true
			return tok, nil
		}
		if c == '/' {
			if s.pos+1 >= len(s.src) || s.src[s.pos+1] != '>' {
				return Token{}, s.errf("expected '/>' in tag <%s>", name)
			}
			s.advance(2)
			tok.SelfClosing = true
			s.sawRoot = true
			// Emit the matching end element on the following Next call.
			s.pendingEnd = name
			s.hasPending = true
			return tok, nil
		}
		attr, err := s.scanAttr(name)
		if err != nil {
			return Token{}, err
		}
		if seen[attr.Name] {
			return Token{}, s.errf("duplicate attribute %q in <%s>", attr.Name, name)
		}
		seen[attr.Name] = true
		tok.Attrs = append(tok.Attrs, attr)
	}
}

// scanAttr scans a single name="value" attribute.
func (s *refScanner) scanAttr(elem string) (Attr, error) {
	name, err := s.scanName()
	if err != nil {
		return Attr{}, err
	}
	s.skipSpace()
	if s.pos >= len(s.src) || s.src[s.pos] != '=' {
		return Attr{}, s.errf("attribute %q in <%s> missing '='", name, elem)
	}
	s.advance(1)
	s.skipSpace()
	if s.pos >= len(s.src) || (s.src[s.pos] != '"' && s.src[s.pos] != '\'') {
		return Attr{}, s.errf("attribute %q in <%s> missing quoted value", name, elem)
	}
	quote := s.src[s.pos]
	s.advance(1)
	var b strings.Builder
	start := s.pos
	plain := true
	for {
		if s.pos >= len(s.src) {
			return Attr{}, s.errf("unterminated value for attribute %q", name)
		}
		c := s.src[s.pos]
		if c == quote {
			break
		}
		switch c {
		case '<':
			return Attr{}, s.errf("'<' not allowed in attribute value of %q", name)
		case '&':
			if plain {
				b.Write(s.src[start:s.pos])
				plain = false
			}
			r, err := s.scanReference()
			if err != nil {
				return Attr{}, err
			}
			b.WriteString(r)
			continue
		case '\n':
			s.line++
		}
		if !plain {
			b.WriteByte(c)
		}
		s.pos++
	}
	var val string
	if plain {
		val = string(s.src[start:s.pos])
	} else {
		val = b.String()
	}
	s.advance(1) // closing quote
	return Attr{Name: name, Value: val}, nil
}

// scanEndElement scans </name>.
func (s *refScanner) scanEndElement() (Token, error) {
	s.advance(2) // </
	name, err := s.scanName()
	if err != nil {
		return Token{}, err
	}
	s.skipSpace()
	if s.pos >= len(s.src) || s.src[s.pos] != '>' {
		return Token{}, s.errf("malformed end tag </%s", name)
	}
	s.advance(1)
	if len(s.open) == 0 {
		return Token{}, s.errf("unexpected end tag </%s>", name)
	}
	top := s.open[len(s.open)-1]
	if top != name {
		return Token{}, s.errf("end tag </%s> does not match open element <%s>", name, top)
	}
	s.open = s.open[:len(s.open)-1]
	return Token{Kind: KindEndElement, Name: name}, nil
}

// scanName scans an XML name (possibly with a namespace prefix).
func (s *refScanner) scanName() (string, error) {
	start := s.pos
	if s.pos >= len(s.src) {
		return "", s.errf("expected name")
	}
	r, size := utf8.DecodeRune(s.src[s.pos:])
	if !isNameStartRune(r) {
		return "", s.errf("invalid name start character %q", r)
	}
	s.pos += size
	for s.pos < len(s.src) {
		r, size = utf8.DecodeRune(s.src[s.pos:])
		if !isNameRune(r) {
			break
		}
		s.pos += size
	}
	return string(s.src[start:s.pos]), nil
}
