package sax

import "testing"

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
