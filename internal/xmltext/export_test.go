package xmltext

// NewScanner returns a Scanner reading one document, without the intern
// table Reset makes: the scanner AppendCharData uses.
func NewScanner(src []byte) *Scanner { return &Scanner{src: src} }

// SyntaxError is the scanner's error type, for errors.As.
type SyntaxError = syntaxError

// ScannerSeeds exposes the hand-written fuzz seeds to the external
// differential test.
var ScannerSeeds = scannerSeeds

// InternedOver returns the strings longer than n bytes held in s's
// intern table.
func InternedOver(s *Scanner, n int) []string {
	if s.names == nil {
		return nil
	}
	var long []string
	for _, e := range s.names {
		if len(e) > n {
			long = append(long, e)
		}
	}
	return long
}
