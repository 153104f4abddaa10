package googleapi

import (
	"strconv"
	"strings"
)

// The generators below produce deterministic synthetic responses: the
// same request always yields byte-identical results (the paper's dummy
// services "actually return the same response XML messages every
// time"), while distinct requests yield distinct results so cache-miss
// traffic is realistic. Sizes are calibrated so the on-wire XML is
// close to the paper's Table 9 (≈520 B spelling, ≈5.3 KB cached page,
// ≈5.0 KB search result).
//
// They stand in for the origin on every miss the referee measures, so
// each builds its result the cheap way: all of a result's text is
// written end to end into one pre-grown builder and every string field
// is sliced out of its one String(). Capitals are written in place,
// integers appended with strconv, the seed is hashed without building
// it, and the generator state is a value. TestGeneratorsGolden pins
// every output to a recorded digest, so any change to a generated byte
// shows; TestSearchAllocs bounds a Search.

// rng is a small deterministic generator seeded from a string.
type rng struct{ state uint64 }

// newRNG seeds a generator with FNV-1a over prefix followed by seed:
// the digest of their concatenation, without building it.
func newRNG(prefix, seed string) rng {
	h := uint64(14695981039346656037)
	for i := 0; i < len(prefix); i++ {
		h ^= uint64(prefix[i])
		h *= 1099511628211
	}
	for i := 0; i < len(seed); i++ {
		h ^= uint64(seed[i])
		h *= 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return rng{state: h}
}

func (r *rng) next() uint64 {
	// xorshift64*.
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 2685821657736338717
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

func (r *rng) pick(words []string) string {
	return words[r.intn(len(words))]
}

var _vocab = []string{
	"distributed", "caching", "middleware", "services", "response",
	"representation", "protocol", "interoperability", "throughput",
	"latency", "serialization", "deserialization", "envelope",
	"transparent", "optimal", "heterogeneous", "platform", "client",
	"reduction", "overhead", "processing", "performance", "evaluation",
}

// SpellingSuggestion returns the suggestion for a phrase: a short
// string, the "small and simple" return class. Each word of the phrase
// is kept or swapped for a vocabulary word.
func SpellingSuggestion(phrase string) string {
	r := newRNG("spell:", phrase)
	var b strings.Builder
	b.Grow(len(phrase) + 32)
	for w := range strings.FieldsSeq(phrase) {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if r.intn(2) == 0 {
			b.WriteString(w)
		} else {
			b.WriteString(_vocab[r.intn(len(_vocab))])
		}
	}
	if b.Len() == 0 { // no words: the suggestion for "web"
		if r.intn(2) == 0 {
			return "web"
		}
		return _vocab[r.intn(len(_vocab))]
	}
	return b.String()
}

// cachedPageSize is the size of generated cached pages, chosen so the
// base64-encoded response XML lands near the paper's 5,338 bytes
// (Table 9): ~3.6 KB of page bytes × 4/3 base64 expansion + envelope.
const cachedPageSize = 3600

// CachedPage returns the cached page bytes for a URL: a single large
// byte array, the "large and simple" return class. The page is built
// in the slice it is returned in.
func CachedPage(url string) []byte {
	r := newRNG("page:", url)
	b := make([]byte, 0, cachedPageSize+256)
	b = append(b, "<html><head><title>"...)
	b = append(b, url...)
	b = append(b, "</title></head><body>"...)
	for len(b) < cachedPageSize-16 {
		b = append(b, "<p>"...)
		for i := 0; i < 8; i++ {
			b = append(b, r.pick(_vocab)...)
			b = append(b, ' ')
		}
		b = append(b, "</p>"...)
	}
	b = append(b, "</body></html>"...)
	n := min(len(b), cachedPageSize)
	return b[:n:n]
}

// searchResultCount is the number of ResultElement entries generated
// per search, sized so the response XML lands near the paper's 5,024
// bytes (Table 9).
const searchResultCount = 3

// searchTextSize is what Search grows its builder by per element,
// apart from the query its snippet repeats. An element's text is 41
// vocabulary words with separators and markup: 429 to 585 bytes over
// 200 000 queries, median 498. A rarer, longer one only makes the
// builder grow once more.
const searchTextSize = 600

// searchBlock is one search result with its slices' backing arrays, so
// the whole object graph is one allocation. Search builds its result in
// one (its text is one more allocation), and
// GoogleSearchResult.CloneDeep copies a result that fits into another.
type searchBlock struct {
	result GoogleSearchResult
	elems  [searchResultCount]ResultElement
	cats   [1]DirectoryCategory
}

// Search returns the result object for a query: a deeply structured
// object tree, the "large and complex" return class.
func Search(query string, start, maxResults int) *GoogleSearchResult {
	r := newRNG("search:", query)
	n := searchResultCount
	if maxResults > 0 && maxResults < n {
		n = maxResults
	}
	blk := new(searchBlock)
	elems := blk.elems[:n:n]

	// Every string field of every element goes into b, end to end in
	// field order; ends[k] is where the k-th one ends. The rng draws keep
	// the order TestGeneratorsGolden was recorded with, which is not
	// quite the layout order: the host's two words are drawn before the
	// summary and written after it, in the URL.
	const fieldsPerElem = 7
	var (
		b       strings.Builder
		ends    [searchResultCount * fieldsPerElem]int
		hostLen [searchResultCount]int
		k       int
		num     [20]byte
	)
	b.Grow(n * (searchTextSize + len(query)))
	end := func() { ends[k] = b.Len(); k++ }
	for i := range elems {
		h1, h2 := r.pick(_vocab), r.pick(_vocab)
		writeSentence(&b, &r, 9, false) // Summary
		end()
		b.WriteString("http://") // URL, with the HostName in it
		from := b.Len()
		b.WriteString("www.")
		b.WriteString(h1)
		b.WriteByte('-')
		b.WriteString(h2)
		b.WriteString(".example.com")
		hostLen[i] = b.Len() - from
		b.WriteByte('/')
		b.WriteString(r.pick(_vocab))
		b.WriteByte('/')
		b.Write(strconv.AppendInt(num[:0], int64(r.intn(1000)), 10))
		b.WriteString(".html")
		end()
		writeSentence(&b, &r, 14, false) // Snippet
		b.WriteString(" <b>")
		b.WriteString(query)
		b.WriteString("</b> ")
		writeSentence(&b, &r, 9, false)
		end()
		writeSentence(&b, &r, 4, true) // Title
		end()
		b.Write(strconv.AppendInt(num[:0], int64(4+r.intn(90)), 10)) // CachedSize
		b.WriteByte('k')
		end()
		elems[i].RelatedInformationPresent = r.intn(2) == 1
		b.WriteString("Top/Computers/") // FullViewableName
		writeSentence(&b, &r, 1, true)
		end()
		writeSentence(&b, &r, 1, true) // DirectoryTitle
		end()
	}

	text := b.String()
	field := func(k int) string { // the k-th field written
		from := 0
		if k > 0 {
			from = ends[k-1]
		}
		return text[from:ends[k]]
	}
	for i := range elems {
		e, f := &elems[i], i*fieldsPerElem
		e.Summary = field(f)
		e.URL = field(f + 1)
		e.HostName = e.URL[len("http://") : len("http://")+hostLen[i]]
		e.Snippet = field(f + 2)
		e.Title = field(f + 3)
		e.CachedSize = field(f + 4)
		e.DirectoryCategory.FullViewableName = field(f + 5)
		e.DirectoryTitle = field(f + 6)
		e.Language = "en"
	}
	blk.cats[0] = DirectoryCategory{FullViewableName: "Top/Computers/Software"}
	blk.result = GoogleSearchResult{
		EstimatedTotalResultsCount: 1000 + r.intn(4_000_000),
		ResultElements:             elems,
		SearchQuery:                query,
		StartIndex:                 start + 1,
		EndIndex:                   start + n,
		DirectoryCategories:        blk.cats[:],
		SearchTime:                 float64(50+r.intn(400)) / 1000.0,
	}
	return &blk.result
}

// writeSentence writes n space-separated vocabulary words to b, each
// with its first letter upper-cased when title is set.
func writeSentence(b *strings.Builder, r *rng, n int, title bool) {
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		w := r.pick(_vocab)
		if title && w[0] >= 'a' && w[0] <= 'z' {
			b.WriteByte(w[0] - ('a' - 'A'))
			w = w[1:]
		}
		b.WriteString(w)
	}
}
