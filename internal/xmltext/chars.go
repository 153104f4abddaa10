package xmltext

import "unicode/utf8"

// Byte classes. class holds one bitmask per byte value, so each hot
// loop of the scanner consumes an ASCII run with one table lookup per
// byte; only bytes >= 0x80 take a UTF-8 decode.
const (
	// cNameStart: an ASCII NameStartChar other than ':' (letters, '_').
	cNameStart = 1 << iota
	// cName: an ASCII NameChar other than ':' (cNameStart, digits, '-', '.').
	cName
	// cSpace: the S production (' ', '\t', '\n', '\r').
	cSpace
	// cTextStop ends a plain run of character data: '<', '&', ']', '\r',
	// the C0 controls XML forbids and every byte >= 0x80.
	cTextStop
	// cAttrStop ends a plain run of an attribute value: '<', '&', '\r',
	// both quotes, the forbidden C0 controls and every byte >= 0x80.
	cAttrStop
	// cCDATAStop ends a plain run of a CDATA section: ']', '\r', the
	// forbidden C0 controls and every byte >= 0x80.
	cCDATAStop
	// cDigit and cHexDigit: the digits of a decimal and a hexadecimal
	// character reference.
	cDigit
	cHexDigit
)

var class = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		b := byte(c)
		switch {
		case 'a' <= b && b <= 'f', 'A' <= b && b <= 'F':
			t[c] |= cNameStart | cName | cHexDigit
		case 'g' <= b && b <= 'z', 'G' <= b && b <= 'Z', b == '_':
			t[c] |= cNameStart | cName
		case '0' <= b && b <= '9':
			t[c] |= cName | cDigit | cHexDigit
		case b == '-', b == '.':
			t[c] |= cName
		case b == ' ', b == '\t', b == '\n', b == '\r':
			t[c] |= cSpace
		}
		if b >= 0x80 || (b < 0x20 && b != '\t' && b != '\n') || b == '\r' {
			t[c] |= cTextStop | cAttrStop | cCDATAStop
		}
		switch b {
		case '<', '&':
			t[c] |= cTextStop | cAttrStop
		case ']':
			t[c] |= cTextStop | cCDATAStop
		case '"', '\'':
			t[c] |= cAttrStop
		}
	}
	return t
}()

// isAllSpace reports whether s consists only of XML whitespace.
func isAllSpace(s string) bool {
	for i := 0; i < len(s); i++ {
		if class[s[i]]&cSpace == 0 {
			return false
		}
	}
	return true
}

// isNameStartRune reports whether r may begin an XML name. This follows
// the XML 1.0 (5th edition) NameStartChar production, with ':' allowed
// because the scanner works on raw (prefix-qualified) names.
func isNameStartRune(r rune) bool {
	switch {
	case r == ':' || r == '_':
		return true
	case 'A' <= r && r <= 'Z', 'a' <= r && r <= 'z':
		return true
	case r >= 0xC0 && r <= 0xD6, r >= 0xD8 && r <= 0xF6, r >= 0xF8 && r <= 0x2FF:
		return true
	case r >= 0x370 && r <= 0x37D, r >= 0x37F && r <= 0x1FFF:
		return true
	case r >= 0x200C && r <= 0x200D, r >= 0x2070 && r <= 0x218F:
		return true
	case r >= 0x2C00 && r <= 0x2FEF, r >= 0x3001 && r <= 0xD7FF:
		return true
	case r >= 0xF900 && r <= 0xFDCF, r >= 0xFDF0 && r <= 0xFFFD:
		return true
	case r >= 0x10000 && r <= 0xEFFFF:
		return true
	}
	return false
}

// isNameRune reports whether r may appear after the first character of
// an XML name (NameChar production).
func isNameRune(r rune) bool {
	if isNameStartRune(r) {
		return true
	}
	switch {
	case r == '-' || r == '.':
		return true
	case '0' <= r && r <= '9':
		return true
	case r == 0xB7:
		return true
	case r >= 0x300 && r <= 0x36F, r >= 0x203F && r <= 0x2040:
		return true
	}
	return false
}

// IsName reports whether s is a syntactically valid XML name.
func IsName(s string) bool {
	if !utf8.ValidString(s) || s == "" {
		return false
	}
	for i, r := range s {
		if i == 0 {
			if !isNameStartRune(r) {
				return false
			}
			continue
		}
		if !isNameRune(r) {
			return false
		}
	}
	return true
}

// isLegalCharRef reports whether r is a character permitted in an XML
// document (Char production).
func isLegalCharRef(r rune) bool {
	switch {
	case r == 0x9 || r == 0xA || r == 0xD:
		return true
	case r >= 0x20 && r <= 0xD7FF:
		return true
	case r >= 0xE000 && r <= 0xFFFD:
		return true
	case r >= 0x10000 && r <= 0x10FFFF:
		return true
	}
	return false
}

// IsLegalText reports whether every rune in s is a legal XML character.
// Serializers use this to reject unencodable strings early. Invalid
// UTF-8 is not legal text.
func IsLegalText(s string) bool {
	for _, r := range s {
		if !isLegalCharRef(r) {
			return false
		}
	}
	return utf8.ValidString(s)
}
