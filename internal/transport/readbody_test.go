package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// allocSlack is what allocatedBy may count besides the read itself: the
// error, and whatever the runtime allocates meanwhile.
const allocSlack = 64 << 10

// allocatedBy returns the bytes the heap handed out while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// failingReader fails its first read: no byte of the body ever arrives.
type failingReader struct{}

var errNoBody = errors.New("connection reset before the body")

func (failingReader) Read([]byte) (int, error) { return 0, errNoBody }

// TestReadBodySized: a body with a declared length arrives whole; the
// length changes nothing about what is read.
func TestReadBodySized(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 512) // 8 KiB
	for _, declared := range []int64{int64(len(body)), -1} {
		got, err := AppendBody(nil, bytes.NewReader(body), declared, 0)
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("declared %d: read %d bytes, %v; want the %d-byte body", declared, len(got), err, len(body))
		}
	}
	if got, err := AppendBody(nil, http.NoBody, 0, 0); err != nil || len(got) != 0 {
		t.Errorf("empty declared body: %q, %v", got, err)
	}
}

// TestReadBodySizedAllocs: an 8 KiB body whose length is declared is
// read into one allocation of its size, where the undeclared read grows
// its buffer by doubling. The reader is reset rather than rebuilt, so
// the count is the read's alone.
func TestReadBodySizedAllocs(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 512)
	r := bytes.NewReader(body)
	var got []byte
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		var err error
		if got, err = AppendBody(nil, r, int64(len(body)), 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 || cap(got) != len(body) {
		t.Errorf("sized read: %v allocs, buffer capacity %d; want 1 allocation of exactly %d bytes", allocs, cap(got), len(body))
	}
}

// TestReadBodyDeclaredOverLimit: a declared length over the limit fails
// before the read, without allocating that length.
func TestReadBodyDeclaredOverLimit(t *testing.T) {
	var err error
	n := allocatedBy(func() { _, err = AppendBody(nil, failingReader{}, 1<<30, 1<<20) })
	var tooLarge *ResponseTooLargeError
	if !errors.As(err, &tooLarge) || tooLarge.Limit != 1<<20 {
		t.Fatalf("err = %v, want ResponseTooLargeError{1 MiB}", err)
	}
	if n > allocSlack {
		t.Errorf("refusing a 1 GiB declaration allocated %d bytes", n)
	}

	// Over HTTP: the server declares 2 KiB against a 100-byte limit.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "2048")
		_, _ = w.Write(bytes.Repeat([]byte("x"), 2048))
	}))
	defer srv.Close()
	_, err = (&HTTP{MaxResponseBytes: 100}).Send(context.Background(), &Request{Endpoint: srv.URL})
	if !errors.As(err, &tooLarge) || tooLarge.Limit != 100 {
		t.Errorf("HTTP Send: err = %v, want ResponseTooLargeError{100}", err)
	}
}

// TestReadBodyShort: a body that ends before its declared length is an
// error, not a short message.
func TestReadBodyShort(t *testing.T) {
	_, err := AppendBody(nil, strings.NewReader(strings.Repeat("y", 50)), 100, 0)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReadBodyUndeclared: without a Content-Length the read takes the
// old path: everything up to the limit, one byte more is an error.
func TestReadBodyUndeclared(t *testing.T) {
	body := strings.Repeat("z", 3000)
	if got, err := AppendBody(nil, strings.NewReader(body), -1, 3000); err != nil || string(got) != body {
		t.Errorf("at the limit: read %d bytes, %v", len(got), err)
	}
	_, err := AppendBody(nil, strings.NewReader(body+"!"), -1, 3000)
	var tooLarge *ResponseTooLargeError
	if !errors.As(err, &tooLarge) || tooLarge.Limit != 3000 {
		t.Errorf("one byte over the limit: err = %v, want ResponseTooLargeError{3000}", err)
	}
	if got, err := AppendBody(nil, strings.NewReader(body), -1, -1); err != nil || string(got) != body {
		t.Errorf("unlimited: read %d bytes, %v", len(got), err)
	}

	// Over HTTP, a chunked response (no Content-Length) still arrives.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < 3; i++ {
			_, _ = io.WriteString(w, body)
			w.(http.Flusher).Flush()
		}
	}))
	defer srv.Close()
	resp, err := (&HTTP{}).Send(context.Background(), &Request{Endpoint: srv.URL})
	if err != nil || len(resp.Body) != 3*len(body) {
		t.Fatalf("chunked: err %v", err)
	}
}

// TestReadBodyHostileLength: a 64 MiB declaration, within the default
// limit, whose bytes never come allocates no more than the 1 MiB cap
// before failing with the reader's error.
func TestReadBodyHostileLength(t *testing.T) {
	var err error
	n := allocatedBy(func() { _, err = AppendBody(nil, failingReader{}, 64<<20, 0) })
	if !errors.Is(err, errNoBody) {
		t.Fatalf("err = %v, want the reader's", err)
	}
	if maxPresize != 1<<20 || n > maxPresize+allocSlack {
		t.Errorf("a 64 MiB declaration allocated %d bytes before any arrived; the cap is %d", n, maxPresize)
	}
}

// TestAppendBody: a body appended to a buffer with room for it lands
// after dst's bytes without an allocation, the limit counts the body's
// bytes alone, and a buffer without the room is left as it was.
func TestAppendBody(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 64) // 1 KiB
	buf := make([]byte, 0, 4<<10)
	r := bytes.NewReader(body)
	var got []byte
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		var err error
		if got, err = AppendBody(buf[:0], r, int64(len(body)), 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || !bytes.Equal(got, body) || &got[0] != &buf[:1][0] {
		t.Errorf("into a 4 KiB buffer: %v allocs, %d bytes, same memory %v; want the body in the buffer, 0 allocs", allocs, len(got), &got[0] == &buf[:1][0])
	}

	prefix := []byte("head:")
	for _, declared := range []int64{int64(len(body)), -1} {
		got, err := AppendBody(append(buf[:0], prefix...), bytes.NewReader(body), declared, int64(len(body)))
		if err != nil || !bytes.Equal(got, append(prefix, body...)) {
			t.Errorf("declared %d, limit exactly the body: %d bytes, %v; want the prefix and the body", declared, len(got), err)
		}
	}

	small := make([]byte, 3, 8)
	copy(small, "abc")
	got, err := AppendBody(small, bytes.NewReader(body), int64(len(body)), 0)
	if err != nil || string(got[:3]) != "abc" || !bytes.Equal(got[3:], body) || string(small) != "abc" {
		t.Errorf("into an 8-byte buffer: %q…, %v", got[:min(len(got), 8)], err)
	}
}
