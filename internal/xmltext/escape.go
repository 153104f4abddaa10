package xmltext

import (
	"io"
	"strings"
)

// EscapeText appends s to b with the characters that are significant in
// XML character data ('<', '>', '&') replaced by entity references.
// Carriage returns are encoded numerically so that round-tripping
// through an XML parser (which normalizes line ends) preserves them.
// b is any string sink — a *strings.Builder, a *bytes.Buffer — so every
// XML writer shares this one escaping table.
func EscapeText[W io.StringWriter](b W, s string) {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '&':
			esc = "&amp;"
		case '\r':
			esc = "&#13;"
		default:
			continue
		}
		b.WriteString(s[last:i])
		b.WriteString(esc)
		last = i + 1
	}
	b.WriteString(s[last:])
}

// EscapeAttr appends s to b escaped for use inside a double-quoted
// attribute value. In addition to the character-data escapes, double
// quotes, tabs and newlines are escaped so attribute-value
// normalization cannot corrupt the value.
func EscapeAttr[W io.StringWriter](b W, s string) {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '&':
			esc = "&amp;"
		case '"':
			esc = "&quot;"
		case '\t':
			esc = "&#9;"
		case '\n':
			esc = "&#10;"
		case '\r':
			esc = "&#13;"
		default:
			continue
		}
		b.WriteString(s[last:i])
		b.WriteString(esc)
		last = i + 1
	}
	b.WriteString(s[last:])
}

// EscapeTextString returns s escaped for character data.
func EscapeTextString(s string) string {
	if !needsTextEscape(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	EscapeText(&b, s)
	return b.String()
}

// EscapeAttrString returns s escaped for a double-quoted attribute.
func EscapeAttrString(s string) string {
	if !needsAttrEscape(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	EscapeAttr(&b, s)
	return b.String()
}

// needsTextEscape reports whether s contains characters that EscapeText
// would rewrite, letting callers skip the Builder on the common path.
func needsTextEscape(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<', '>', '&', '\r':
			return true
		}
	}
	return false
}

// needsAttrEscape reports whether s contains characters that EscapeAttr
// would rewrite.
func needsAttrEscape(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<', '>', '&', '"', '\t', '\n', '\r':
			return true
		}
	}
	return false
}

// SplitQName splits a possibly prefixed XML name into its prefix and
// local parts. A name without a prefix yields an empty prefix.
func SplitQName(name string) (prefix, local string) {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}
