package soap

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/xmltext"
)

// SniffOperation returns the local name of the rpc wrapper element (the
// first child of the SOAP Body) without decoding the message: it
// tokenizes only as far as the envelope header reaches. Server-side
// response caching uses it to consult the per-operation policy before
// deciding whether the request is worth full processing.
//
// For a Fault-bearing or empty Body it returns "" with a nil error.
//
// The scanner comes from a pool, so its intern table already holds the
// envelope's names and the sniff allocates nothing; the name it returns
// is an immutable interned string, safe to keep after the scanner goes
// back.
func SniffOperation(doc []byte) (string, error) {
	sc := sniffers.Get().(*xmltext.Scanner)
	sc.Reset(doc)
	op, err := sniff(sc)
	sc.Reset(nil)
	sniffers.Put(sc)
	return op, err
}

var sniffers = sync.Pool{New: func() any { return new(xmltext.Scanner) }}

func sniff(sc *xmltext.Scanner) (string, error) {
	depth := 0
	inBody := false
	for {
		tok, err := sc.Next()
		if errors.Is(err, io.EOF) {
			return "", nil
		}
		if err != nil {
			return "", fmt.Errorf("soap: sniff: %w", err)
		}
		switch tok.Kind {
		case xmltext.KindStartElement:
			depth++
			_, local := tok.QName()
			switch {
			case depth == 1 && local != "Envelope":
				return "", fmt.Errorf("soap: sniff: root element %q is not an envelope", tok.Name)
			case depth == 2 && local == "Body":
				inBody = true
			case depth == 3 && inBody:
				if local == "Fault" {
					return "", nil
				}
				return local, nil
			}
		case xmltext.KindEndElement:
			if depth == 2 && inBody {
				// Body closed without children.
				return "", nil
			}
			depth--
		}
	}
}
