package xmltext

import (
	"errors"
	"io"
	"testing"
)

// scannerSeeds are the tokenizer fuzz targets' hand-written seeds.
var scannerSeeds = []string{
	`<doc><para>Hello, world!</para></doc>`,
	`<a x="1" y='two'>&lt;&amp;&#65;</a>`,
	`<?xml version="1.0"?><!DOCTYPE d [<!ELEMENT d ANY>]><d><![CDATA[x]]></d>`,
	`<s:Envelope xmlns:s="urn:e"><s:Body/></s:Envelope>`,
	`<a><!-- comment --><?pi body?></a>`,
	`<a>]]></a>`,
	`<a`, `</a>`, `<a>&bogus;</a>`, `<日本語 属性="値"/>`,
	"<a>\xff\xfe</a>", `<a x="1" x="2"/>`,
}

// FuzzScanner feeds arbitrary bytes to the tokenizer: it must never
// panic or loop, only return tokens or a SyntaxError. Run longer with:
//
//	go test -fuzz '^FuzzScanner$' ./internal/xmltext
func FuzzScanner(f *testing.F) {
	for _, s := range scannerSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := NewScanner(data)
		// Token count is bounded by input length; anything more means
		// the scanner is not consuming input.
		for i := 0; i <= len(data)+2; i++ {
			tok, err := sc.Next()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				var se *syntaxError
				if !errors.As(err, &se) {
					t.Fatalf("non-syntax error %T: %v", err, err)
				}
				return
			}
			if tok.Kind == 0 {
				t.Fatal("zero-kind token without error")
			}
		}
		t.Fatalf("scanner produced more tokens than input bytes (%d)", len(data))
	})
}

// FuzzEscapeRoundTrip: any legal text must survive escape→scan.
func FuzzEscapeRoundTrip(f *testing.F) {
	f.Add("hello")
	f.Add("<&>\"'")
	f.Add("line\r\nbreaks\ttabs")
	f.Add("日本語テキスト")
	f.Fuzz(func(t *testing.T, s string) {
		if !IsLegalText(s) {
			t.Skip()
		}
		doc := `<t a="` + escapeString(s, &attrEscapes) + `">` + EscapeTextString(s) + `</t>`
		sc := NewScanner([]byte(doc))
		tok, err := sc.Next()
		if err != nil {
			t.Fatalf("start: %v (doc %q)", err, doc)
		}
		if tok.Attrs[0].Value != s {
			t.Fatalf("attr round trip: %q != %q", tok.Attrs[0].Value, s)
		}
		var text string
		for {
			tok, err = sc.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("scan: %v", err)
			}
			if tok.Kind == KindCharData {
				text += tok.Text
			}
		}
		if text != s {
			t.Fatalf("text round trip: %q != %q", text, s)
		}
	})
}
