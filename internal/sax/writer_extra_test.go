package sax

import (
	"strings"
	"testing"
)

func TestWriterXMLDeclAndReset(t *testing.T) {
	w := NewWriter()
	w.WriteXMLDecl()
	w.WriteXMLDecl() // idempotent before content
	_ = w.OnStartDocument()
	_ = w.OnStartElement(Name{Local: "a"}, nil)
	_ = w.OnEndElement(Name{Local: "a"})
	_ = w.OnEndDocument()
	out := w.String()
	if !strings.HasPrefix(out, `<?xml version="1.0" encoding="UTF-8"?>`) {
		t.Errorf("missing declaration: %q", out)
	}
	if strings.Count(out, "<?xml") != 1 {
		t.Errorf("declaration duplicated: %q", out)
	}
	if string(w.Bytes()) != out {
		t.Error("Bytes differs from String")
	}

	w.Reset()
	if w.String() != "" {
		t.Error("reset did not clear output")
	}
	_ = w.OnStartDocument()
	_ = w.OnStartElement(Name{Local: "b"}, nil)
	_ = w.OnEndElement(Name{Local: "b"})
	if w.String() != "<b></b>" {
		t.Errorf("after reset: %q", w.String())
	}
}

func TestIsNamespaceDecl(t *testing.T) {
	cases := []struct {
		attr Attribute
		want bool
	}{
		{Attribute{Name: Name{Prefix: "xmlns", Local: "x"}}, true},
		{Attribute{Name: Name{Prefix: "", Local: "xmlns"}}, true},
		{Attribute{Name: Name{Prefix: "", Local: "id"}}, false},
		{Attribute{Name: Name{Prefix: "xsi", Local: "type"}}, false},
	}
	for _, c := range cases {
		if got := c.attr.IsNamespaceDecl(); got != c.want {
			t.Errorf("%v: got %v", c.attr.Name, got)
		}
	}
}

func TestNopHandlerCompleteness(t *testing.T) {
	// Every NopHandler method returns nil so embedding is safe.
	var h Handler = NopHandler{}
	checks := []error{
		h.OnStartDocument(),
		h.OnEndDocument(),
		h.OnStartElement(Name{}, nil),
		h.OnEndElement(Name{}),
		h.OnCharacters(""),
	}
	for i, err := range checks {
		if err != nil {
			t.Errorf("method %d returned %v", i, err)
		}
	}
}
