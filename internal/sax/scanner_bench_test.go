package sax_test

import (
	"bytes"
	"encoding/xml"
	"io"
	"testing"

	"repro/internal/sax"
)

// BenchmarkScannerVsStdlib compares the from-scratch tokenizer against
// encoding/xml on the GoogleSearch response, validating that the
// substrate's XML costs are not artificially inflated.
func BenchmarkScannerVsStdlib(b *testing.B) {
	doc := googleSearchResponse(b)

	b.Run("internal xmltext+sax", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := sax.Parse(doc, sax.NopHandler{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stdlib encoding/xml", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dec := xml.NewDecoder(bytes.NewReader(doc))
			for {
				_, err := dec.Token()
				if err != nil {
					if err == io.EOF {
						break
					}
					b.Fatal(err)
				}
			}
		}
	})
}
