package sax

// NopHandler implements Handler with no-ops: the handler for tests that
// check or time the parse alone. Embed it to implement only the events
// a test handler cares about.
type NopHandler struct{}

var _ Handler = NopHandler{}

func (NopHandler) OnStartDocument() error                 { return nil }
func (NopHandler) OnEndDocument() error                   { return nil }
func (NopHandler) OnStartElement(Name, []Attribute) error { return nil }
func (NopHandler) OnEndElement(Name) error                { return nil }
func (NopHandler) OnCharacters(string) error              { return nil }

// NewWriter returns an empty writer.
func NewWriter() *writer { return &writer{} }

// WriteSequence serializes a recorded event sequence to XML text: the
// byte-identity oracle for template splices.
func WriteSequence(events []Event) (string, error) {
	w := &writer{}
	if err := Replay(events, w); err != nil {
		return "", err
	}
	return w.String(), nil
}
