package main

import (
	"strings"
	"testing"

	"repro/internal/googleapi"
	"repro/internal/typemap"
	"repro/internal/wsdl"
	"repro/internal/xsd"
)

func googleDefs(t *testing.T) *wsdl.Definitions {
	t.Helper()
	defs, err := wsdl.Parse([]byte(googleapi.WSDL))
	if err != nil {
		t.Fatal(err)
	}
	return defs
}

func TestBuildParamsOrdersAndTypes(t *testing.T) {
	defs := googleDefs(t)
	params, err := buildParams(defs, "doGoogleSearch", []string{
		// Deliberately out of order: the WSDL message order must win.
		"oe=latin1", "key=k", "q=golang", "start=5", "maxResults=10",
		"filter=true", "restrict=", "safeSearch=false", "lr=lang_en", "ie=latin1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(params) != 10 {
		t.Fatalf("params = %d", len(params))
	}
	if params[0].Name != "key" || params[1].Name != "q" {
		t.Errorf("order = %s, %s", params[0].Name, params[1].Name)
	}
	if v, ok := params[2].Value.(int); !ok || v != 5 {
		t.Errorf("start = %#v", params[2].Value)
	}
	if v, ok := params[4].Value.(bool); !ok || v != true {
		t.Errorf("filter = %#v", params[4].Value)
	}
	if v, ok := params[6].Value.(bool); !ok || v != false {
		t.Errorf("safeSearch = %#v", params[6].Value)
	}
}

func TestBuildParamsErrors(t *testing.T) {
	defs := googleDefs(t)
	if _, err := buildParams(defs, "doSpellingSuggestion", []string{"key=k"}); err == nil {
		t.Error("missing argument accepted")
	}
	if _, err := buildParams(defs, "doSpellingSuggestion", []string{"key=k", "phrase=p", "extra=x"}); err == nil {
		t.Error("unknown argument accepted")
	}
	if _, err := buildParams(defs, "doSpellingSuggestion", []string{"noequals"}); err == nil {
		t.Error("malformed argument accepted")
	}
	if _, err := buildParams(defs, "noSuchOp", nil); err == nil {
		t.Error("unknown operation accepted")
	}
	if _, err := buildParams(defs, "doGoogleSearch", []string{
		"key=k", "q=x", "start=notanumber", "maxResults=10",
		"filter=false", "restrict=", "safeSearch=false", "lr=", "ie=", "oe=",
	}); err == nil {
		t.Error("uncoercible int accepted")
	}
}

// TestRepFlagRejectsUnknownNames: -rep resolves through the
// representation registry before any call is made, so a name it does
// not know — "adaptive" included — fails with the list it accepts.
func TestRepFlagRejectsUnknownNames(t *testing.T) {
	err := run(runConfig{wsdlSrc: "google", operation: "doSpellingSuggestion", useCache: true, rep: "adaptive"})
	if err == nil {
		t.Fatal("-rep adaptive accepted")
	}
	for _, want := range []string{`"adaptive"`, "clone", "raw", "xmltmpl", "auto"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

func TestCoerce(t *testing.T) {
	cases := []struct {
		ty   string
		raw  string
		want any
	}{
		{"string", "hello", "hello"},
		{"boolean", "true", true},
		{"int", "42", 42},
		{"long", "9999999999", int64(9999999999)},
		{"double", "2.5", 2.5},
		{"float", "1.5", float32(1.5)},
		{"unsignedLong", "7", uint64(7)},
		{"base64Binary", "raw", []byte("raw")},
	}
	for _, c := range cases {
		got, err := coerce(typemap.QName{Space: xsd.SchemaNS, Local: c.ty}, c.raw)
		if err != nil {
			t.Errorf("%s: %v", c.ty, err)
			continue
		}
		if b, ok := c.want.([]byte); ok {
			if string(got.([]byte)) != string(b) {
				t.Errorf("%s = %#v", c.ty, got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("%s = %#v (%T), want %#v", c.ty, got, got, c.want)
		}
	}

	if _, err := coerce(typemap.QName{Space: "urn:x", Local: "Complex"}, "x"); err == nil {
		t.Error("complex type accepted")
	}
	if _, err := coerce(typemap.QName{Space: xsd.SchemaNS, Local: "boolean"}, "maybe"); err == nil {
		t.Error("bad boolean accepted")
	}
}
