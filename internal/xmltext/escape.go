package xmltext

import (
	"io"
	"strings"
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

// EscapeAttrString returns s escaped for a double-quoted attribute.
func EscapeAttrString(s string) string { return escapeString(s, &attrEscapes) }

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

// SplitQName splits a possibly prefixed XML name into its prefix and
// local parts. A name without a prefix yields an empty prefix.
func SplitQName(name string) (prefix, local string) {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}
