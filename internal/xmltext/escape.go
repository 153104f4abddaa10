package xmltext

import (
	"io"
	"strings"
	"unicode/utf8"
)

// textEscapes and attrEscapes map each byte that is significant in
// character data, or in a double-quoted attribute value, to its
// escape; the other bytes map to "". Carriage returns are encoded
// numerically so that an XML parser's line-end normalisation leaves
// them intact, and in attribute values so are tabs and newlines, so
// attribute-value normalisation cannot corrupt the value.
var (
	textEscapes = [256]string{'<': "&lt;", '>': "&gt;", '&': "&amp;", '\r': "&#13;"}
	attrEscapes = [256]string{'<': "&lt;", '>': "&gt;", '&': "&amp;", '\r': "&#13;",
		'"': "&quot;", '\t': "&#9;", '\n': "&#10;"}
)

// EscapeText appends s to b escaped for character data. b is any
// string sink — a *strings.Builder, a *bytes.Buffer — so every XML
// writer shares this one escaping table.
func EscapeText[W io.StringWriter](b W, s string) { escape(b, s, &textEscapes) }

// EscapeAttr appends s to b escaped for a double-quoted attribute
// value.
func EscapeAttr[W io.StringWriter](b W, s string) { escape(b, s, &attrEscapes) }

func escape[W io.StringWriter](b W, s string, escapes *[256]string) {
	last := 0
	for i := 0; i < len(s); i++ {
		if esc := escapes[s[i]]; esc != "" {
			b.WriteString(s[last:i])
			b.WriteString(esc)
			last = i + 1
		}
	}
	b.WriteString(s[last:])
}

// EscapeTextString returns s escaped for character data.
func EscapeTextString(s string) string { return escapeString(s, &textEscapes) }

// escapeString returns s itself when no byte of it needs escaping.
func escapeString(s string, escapes *[256]string) string {
	for i := 0; i < len(s); i++ {
		if escapes[s[i]] != "" {
			var b strings.Builder
			b.Grow(len(s) + 8)
			escape(&b, s, escapes)
			return b.String()
		}
	}
	return s
}

// AppendCharData appends to b the text a Scanner reports for raw, the
// character data between two tags: references resolved and line ends
// normalised, with the Char production and the "]]>" rule enforced
// exactly as Next enforces them. raw holds no '<'. A plain ASCII run is
// copied as it is, and the builder is the only thing written, so a
// caller that sized b once pays no allocation per call. On an error
// part of the text may already be in b.
func AppendCharData(b *strings.Builder, raw []byte) error {
	s := Scanner{src: raw}
	mark, i := 0, 0
	for {
		for i < len(raw) && class[raw[i]]&cTextStop == 0 {
			i++
		}
		if i >= len(raw) {
			break
		}
		switch c := raw[i]; {
		case c == '<':
			s.pos = i
			return s.errf("'<' in character data")
		case c == ']':
			if i+2 < len(raw) && raw[i+1] == ']' && raw[i+2] == '>' {
				s.pos = i
				return s.errf("']]>' not allowed in character data")
			}
			i++
		case c == '&', c == '\r':
			b.Write(raw[mark:i])
			if s.pos = i; c == '\r' {
				b.WriteByte('\n')
				if s.pos++; s.pos < len(raw) && raw[s.pos] == '\n' {
					s.pos++
				}
			} else if err := s.scanReference(b); err != nil {
				return err
			}
			i, mark = s.pos, s.pos
		default:
			r, size := utf8.DecodeRune(raw[i:])
			if (r == utf8.RuneError && size == 1) || !isLegalCharRef(r) {
				s.pos = i
				return s.errf("illegal character data")
			}
			i += size
		}
	}
	b.Write(raw[mark:])
	return nil
}
