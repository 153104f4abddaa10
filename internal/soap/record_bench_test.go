package soap_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/googleapi"
	"repro/internal/sax"
)

// BenchmarkAblationEventRecordingTee measures the client-side cost of
// recording the SAX event sequence during the response parse (what a
// miss pays when its store reads events, client.Context.RecordEvents):
// one parse teed to two consumers vs one.
func BenchmarkAblationEventRecordingTee(b *testing.B) {
	e, err := bench.NewEnv()
	if err != nil {
		b.Fatal(err)
	}
	op, _ := e.Fixture(googleapi.OpGoogleSearch)
	b.Run("decode only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dh := e.Codec.NewDecodeHandler()
			if err := sax.Parse(op.Ctx.ResponseXML, dh.Handler()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode+record tee", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dh := e.Codec.NewDecodeHandler()
			rec := sax.NewRecorder()
			if err := sax.Parse(op.Ctx.ResponseXML, sax.Tee(rec, dh.Handler())); err != nil {
				b.Fatal(err)
			}
		}
	})
}
