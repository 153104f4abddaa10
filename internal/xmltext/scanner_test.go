package xmltext

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// collect scans the whole document and returns all tokens, each with
// its own copy of the attributes (Token.Attrs is valid only until the
// next call to Next).
func collect(t *testing.T, doc string) []Token {
	t.Helper()
	sc := NewScanner([]byte(doc))
	var toks []Token
	for {
		tok, err := sc.Next()
		if errors.Is(err, io.EOF) {
			return toks
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		tok.Attrs = slices.Clone(tok.Attrs)
		toks = append(toks, tok)
	}
}

// scanErr scans until an error and returns it (nil if the document is
// well-formed).
func scanErr(doc string) error {
	sc := NewScanner([]byte(doc))
	for {
		_, err := sc.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func TestScannerSimpleDocument(t *testing.T) {
	toks := collect(t, `<doc><para>Hello, world!</para></doc>`)
	want := []Token{
		{Kind: KindStartElement, Name: "doc"},
		{Kind: KindStartElement, Name: "para"},
		{Kind: KindCharData, Text: "Hello, world!"},
		{Kind: KindEndElement, Name: "para"},
		{Kind: KindEndElement, Name: "doc"},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %+v", len(toks), len(want), toks)
	}
	for i, w := range want {
		g := toks[i]
		if g.Kind != w.Kind || g.Name != w.Name || g.Text != w.Text {
			t.Errorf("token %d: got %+v, want %+v", i, g, w)
		}
	}
}

func TestScannerAttributes(t *testing.T) {
	toks := collect(t, `<a x="1" y='two' z="a&amp;b &lt;c&gt; &quot;q&quot; &#65;"/>`)
	if len(toks) != 2 {
		t.Fatalf("got %d tokens, want 2", len(toks))
	}
	st := toks[0]
	if !st.SelfClosing {
		t.Error("expected self-closing tag")
	}
	want := []Attr{
		{Name: "x", Value: "1"},
		{Name: "y", Value: "two"},
		{Name: "z", Value: `a&b <c> "q" A`},
	}
	if len(st.Attrs) != len(want) {
		t.Fatalf("got %d attrs, want %d", len(st.Attrs), len(want))
	}
	for i, w := range want {
		if st.Attrs[i] != w {
			t.Errorf("attr %d: got %+v, want %+v", i, st.Attrs[i], w)
		}
	}
	if toks[1].Kind != KindEndElement || toks[1].Name != "a" {
		t.Errorf("expected synthesized end element, got %+v", toks[1])
	}
	// Past eight attributes the duplicate check changes method.
	if toks = collect(t, `<a a="" b="" c="" d="" e="" f="" g="" h="" i="" j="" k=""/>`); len(toks[0].Attrs) != 11 {
		t.Errorf("got %d attrs, want 11", len(toks[0].Attrs))
	}
}

func TestScannerEntities(t *testing.T) {
	toks := collect(t, `<t>&lt;tag&gt; &amp; &apos;x&apos; &quot;y&quot; &#x41;&#66;</t>`)
	if got, want := toks[1].Text, `<tag> & 'x' "y" AB`; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestScannerCDATA(t *testing.T) {
	toks := collect(t, `<t><![CDATA[<not><parsed> & raw]]></t>`)
	if got, want := toks[1].Text, `<not><parsed> & raw`; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestScannerCommentAndPI(t *testing.T) {
	toks := collect(t, "<?xml version=\"1.0\"?><!-- hello --><t><?php echo ?></t>")
	if toks[0].Kind != KindProcInst || toks[0].Name != "xml" {
		t.Errorf("expected xml decl first, got %+v", toks[0])
	}
	if toks[1].Kind != KindComment || toks[1].Text != " hello " {
		t.Errorf("expected comment, got %+v", toks[1])
	}
	if toks[3].Kind != KindProcInst || toks[3].Name != "php" || toks[3].Text != "echo " {
		t.Errorf("expected pi, got %+v", toks[3])
	}
}

func TestScannerDoctype(t *testing.T) {
	toks := collect(t, `<!DOCTYPE doc [ <!ELEMENT doc ANY> ]><doc/>`)
	if toks[0].Kind != KindDirective {
		t.Fatalf("expected directive, got %+v", toks[0])
	}
	if !strings.HasPrefix(toks[0].Text, "DOCTYPE") {
		t.Errorf("directive text = %q", toks[0].Text)
	}
}

func TestScannerNestedSameName(t *testing.T) {
	toks := collect(t, `<a><a><a/></a></a>`)
	opens, closes := 0, 0
	for _, tok := range toks {
		switch tok.Kind {
		case KindStartElement:
			opens++
		case KindEndElement:
			closes++
		}
	}
	if opens != 3 || closes != 3 {
		t.Errorf("got %d opens, %d closes; want 3/3", opens, closes)
	}
}

func TestScannerMixedContent(t *testing.T) {
	toks := collect(t, `<p>one<b>two</b>three</p>`)
	var texts []string
	for _, tok := range toks {
		if tok.Kind == KindCharData {
			texts = append(texts, tok.Text)
		}
	}
	if len(texts) != 3 || texts[0] != "one" || texts[1] != "two" || texts[2] != "three" {
		t.Errorf("texts = %q", texts)
	}
}

func TestScannerUTF8Names(t *testing.T) {
	toks := collect(t, `<日本語 属性="値">テキスト</日本語>`)
	if toks[0].Name != "日本語" {
		t.Errorf("name = %q", toks[0].Name)
	}
	if toks[0].Attrs[0].Name != "属性" || toks[0].Attrs[0].Value != "値" {
		t.Errorf("attr = %+v", toks[0].Attrs[0])
	}
	if toks[1].Text != "テキスト" {
		t.Errorf("text = %q", toks[1].Text)
	}
}

func TestScannerErrors(t *testing.T) {
	cases := map[string]string{
		"empty document":          ``,
		"no root, only comment":   `<!-- x -->`,
		"unclosed element":        `<a><b></b>`,
		"mismatched end tag":      `<a></b>`,
		"stray end tag":           `</a>`,
		"multiple roots":          `<a/><b/>`,
		"text outside root":       `<a/>junk`,
		"bad entity":              `<a>&bogus;</a>`,
		"unterminated entity":     `<a>&ltx</a>`,
		"bad char ref":            `<a>&#xZZ;</a>`,
		"illegal char ref":        `<a>&#0;</a>`,
		"duplicate attribute":     `<a x="1" x="2"/>`,
		"attr missing equals":     `<a x"1"/>`,
		"attr missing quote":      `<a x=1/>`,
		"unterminated attr value": `<a x="1`,
		"lt in attr value":        `<a x="<"/>`,
		"unterminated comment":    `<a><!-- never closed`,
		"double dash in comment":  `<a><!-- a -- b --></a>`,
		"unterminated cdata":      `<a><![CDATA[never`,
		"cdata outside root":      `<![CDATA[x]]><a/>`,
		"unterminated pi":         `<a><?pi never`,
		"unterminated start tag":  `<a `,
		"bad name start":          `<1abc/>`,
		"unterminated end tag":    `<a></a`,
		"cdata close in text":     `<a>]]></a>`,
		"unterminated directive":  `<!DOCTYPE doc`,
		"eof after open bracket":  `<`,
		"garbage before root":     `hello<a/>`,
		"unterminated self-close": `<a/`,
		"attribute after slash":   `<a / x="1">`,
		"NUL in text":             "<a>\x00</a>",
		"U+FFFE in text":          "<a>\uFFFE</a>",
		"control in attr value":   "<a x=\"\b\"/>",
		"invalid UTF-8 in text":   "<a>\xff</a>",
		"invalid UTF-8 name":      "<\xb8/>",
		"two colons in a name":    `<a:b:c/>`,
		"leading colon":           `<:a/>`,
		"trailing colon":          `<a x:="1"/>`,
		"upper-case X char ref":   `<a>&#X41;</a>`,
		"malformed comment open":  `<a><!-x--></a>`,
		"duplicate past eight":    `<a a="" b="" c="" d="" e="" f="" g="" h="" i="" c=""/>`,
	}
	for name, doc := range cases {
		if err := scanErr(doc); err == nil {
			t.Errorf("%s: expected error for %q", name, doc)
		}
	}
}

// TestScannerErrorHasPosition pins the offset and line of each error;
// the goldens are the ones the scanner reported while it still counted
// lines byte by byte, so the count from the offset must match them.
func TestScannerErrorHasPosition(t *testing.T) {
	for _, c := range []struct {
		doc          string
		offset, line int
	}{
		{"<a>\n<b>\n&bad;</b></a>", 13, 3},
		{"<a>\n</b>", 8, 2},
		{"<a/>\n\n<b/>", 8, 3},
		{"<a/>\njunk", 9, 2},
		{"<a\n x=\"1\"\n x=\"2\"/>", 16, 3},
		{"<a x=\n\"<\"/>", 7, 2},
		{"<a>\n]]>\n</a>", 4, 2},
		{"<a>\n<!-- a -- b -->\n</a>", 8, 2},
		{"<a>\n<![CDATA[never", 13, 2},
		{"<a>\n<?pi never", 9, 2},
		{"<a>\n\n<1abc/></a>", 6, 3},
		{"<a>\n<b>\n</b>", 12, 3},
		{"<a\nx=1/>", 5, 2},
		{"<a>\n<b x=\"1", 11, 2},
		{"\n\n<!DOCTYPE doc", 15, 3},
		{"<a>\n&lt</a>", 4, 2},
		{"<a>\n</a\n", 8, 3},
		{"<a>\n<b\n/x></b></a>", 7, 3},
		{"<a>\r\n<b>\r\n&bad;</b></a>", 15, 3},
		{"<r>\n<!-- c\n -->\n<x y='1\n2' z=\"3\">\n<![CDATA[\n]]>\n</x>\n</r>\n<s/>", 60, 10},
	} {
		var se *syntaxError
		if err := scanErr(c.doc); !errors.As(err, &se) {
			t.Errorf("%q: error %v, want a *SyntaxError", c.doc, err)
		} else if se.Offset != c.offset || se.Line != c.line || !strings.Contains(se.Error(), fmt.Sprintf("line %d ", c.line)) {
			t.Errorf("%q: %v, want offset %d line %d", c.doc, se, c.offset, c.line)
		}
	}
}

func TestScannerWhitespaceAroundRoot(t *testing.T) {
	toks := collect(t, "\n  <?xml version=\"1.0\"?>\n  <a>x</a>\n\t ")
	var roots int
	for _, tok := range toks {
		if tok.Kind == KindStartElement {
			roots++
		}
	}
	if roots != 1 {
		t.Errorf("roots = %d", roots)
	}
}

func TestIsName(t *testing.T) {
	valid := []string{"a", "abc", "a-b", "a.b", "a_b", "a1", "ns:local", "_x", "日本語"}
	for _, s := range valid {
		if !IsName(s) {
			t.Errorf("IsName(%q) = false, want true", s)
		}
	}
	invalid := []string{"", "1a", "-a", ".a", "a b", "a<b"}
	for _, s := range invalid {
		if IsName(s) {
			t.Errorf("IsName(%q) = true, want false", s)
		}
	}
}

func TestEscapeRoundTripProperty(t *testing.T) {
	// Property: any legal text survives escape → scan, and with its
	// carriage returns left literal it reads back with normalised line
	// ends.
	text := func(doc string) string {
		sc := NewScanner([]byte(doc))
		var got strings.Builder
		for {
			tok, err := sc.Next()
			if errors.Is(err, io.EOF) {
				return got.String()
			}
			if err != nil {
				return "error: " + err.Error()
			}
			got.WriteString(tok.Text)
		}
	}
	f := func(s string) bool {
		if !IsLegalText(s) {
			return true // skip strings with illegal XML characters
		}
		literalCR := strings.ReplaceAll(EscapeTextString(s), "&#13;", "\r")
		return text("<t>"+EscapeTextString(s)+"</t>") == s &&
			text("<t>"+literalCR+"</t>") == normalizeNewlines(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if !f("a\r\nb\rc\n\r") {
		t.Error("CR line ends do not round-trip")
	}
}

func TestEscapeAttrRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		if !IsLegalText(s) {
			return true
		}
		doc := `<t a="` + escapeString(s, &attrEscapes) + `"/>`
		sc := NewScanner([]byte(doc))
		tok, err := sc.Next()
		if err != nil {
			return false
		}
		return len(tok.Attrs) == 1 && tok.Attrs[0].Value == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// normalizeNewlines applies the XML 1.0 §2.11 line-end normalisation a
// parser performs on literal text: "\r\n" and a lone "\r" read as "\n".
func normalizeNewlines(s string) string {
	return strings.NewReplacer("\r\n", "\n", "\r", "\n").Replace(s)
}

func TestSplitQName(t *testing.T) {
	cases := []struct {
		in            string
		colon         int32
		prefix, local string
	}{
		{"a", 0, "", "a"},
		{"ns:a", 2, "ns", "a"},
		{"a:", 1, "a", ""},
	}
	for _, c := range cases {
		p, l := splitAt(c.in, c.colon)
		if p != c.prefix || l != c.local {
			t.Errorf("splitAt(%q, %d) = (%q, %q), want (%q, %q)", c.in, c.colon, p, l, c.prefix, c.local)
		}
	}
}

func TestEscapeAttrControlChars(t *testing.T) {
	got := escapeString("a\tb\nc\rd\"e<f>g&h", &attrEscapes)
	want := "a&#9;b&#10;c&#13;d&quot;e&lt;f&gt;g&amp;h"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestEscapeTextNoAllocPath(t *testing.T) {
	s := "plain text with no special characters"
	if EscapeTextString(s) != s {
		t.Error("plain text should be returned unchanged")
	}
}

func TestScannerDepth(t *testing.T) {
	sc := NewScanner([]byte(`<a><b></b></a>`))
	depths := []int{}
	for {
		_, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		depths = append(depths, len(sc.open))
	}
	want := []int{1, 2, 1, 0}
	for i := range want {
		if depths[i] != want[i] {
			t.Errorf("depths = %v, want %v", depths, want)
			break
		}
	}
}

// TestAppendCharDataMatchesScanner: AppendCharData reports exactly the
// text the Scanner reports for the same bytes between two tags, and
// fails exactly when the Scanner does.
func TestAppendCharDataMatchesScanner(t *testing.T) {
	for _, raw := range []string{
		"", "plain text", "a &amp; b &lt;c&gt; &apos;&quot;", "&#60;&#x3C;&#x263A;&#128512;",
		"one\r\ntwo\rthree\n", "\r", "tail ]", "]]", "a ]] b", "a ]]> b", "é ü ☺ 😀",
		"bad \xff byte", "\xed\xa0\x80", "ctl \x01", "tab\tok", "&bogus;", "&amp", "&#0;",
		"&#xFFFE;", "&#99999999999;", "&#x;", "&;", "& amp;", "&#60", "x&lt",
	} {
		var want string
		s := NewScanner([]byte("<a>" + raw + "</a>"))
		_, err := s.Next()
		if err == nil {
			var tok Token
			if tok, err = s.Next(); err == nil && tok.Kind == KindCharData {
				want = tok.Text
				_, err = s.Next()
			}
		}
		var b strings.Builder
		got := AppendCharData(&b, []byte(raw))
		if (err == nil) != (got == nil) || (err == nil && b.String() != want) {
			t.Errorf("%q: AppendCharData gave %q, %v; Scanner %q, %v", raw, b.String(), got, want, err)
		}
	}
}
