package googleapi

import (
	"fmt"
	"strings"
)

// The generators below produce deterministic synthetic responses: the
// same request always yields byte-identical results (the paper's dummy
// services "actually return the same response XML messages every
// time"), while distinct requests yield distinct results so cache-miss
// traffic is realistic. Sizes are calibrated so the on-wire XML is
// close to the paper's Table 9 (≈520 B spelling, ≈5.3 KB cached page,
// ≈5.0 KB search result).

// rng is a small deterministic generator seeded from a string.
type rng struct{ state uint64 }

func newRNG(seed string) *rng {
	// FNV-1a over the seed.
	h := uint64(14695981039346656037)
	for i := 0; i < len(seed); i++ {
		h ^= uint64(seed[i])
		h *= 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return &rng{state: h}
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
// string, the "small and simple" return class.
func SpellingSuggestion(phrase string) string {
	r := newRNG("spell:" + phrase)
	words := strings.Fields(phrase)
	if len(words) == 0 {
		words = []string{"web"}
	}
	out := make([]string, len(words))
	for i, w := range words {
		if r.intn(2) == 0 {
			out[i] = w
		} else {
			out[i] = _vocab[r.intn(len(_vocab))]
		}
	}
	return strings.Join(out, " ")
}

// cachedPageSize is the size of generated cached pages, chosen so the
// base64-encoded response XML lands near the paper's 5,338 bytes
// (Table 9): ~3.6 KB of page bytes × 4/3 base64 expansion + envelope.
const cachedPageSize = 3600

// CachedPage returns the cached page bytes for a URL: a single large
// byte array, the "large and simple" return class.
func CachedPage(url string) []byte {
	r := newRNG("page:" + url)
	var b strings.Builder
	b.Grow(cachedPageSize + 256)
	b.WriteString("<html><head><title>")
	b.WriteString(url)
	b.WriteString("</title></head><body>")
	for b.Len() < cachedPageSize-16 {
		b.WriteString("<p>")
		for i := 0; i < 8; i++ {
			b.WriteString(r.pick(_vocab))
			b.WriteByte(' ')
		}
		b.WriteString("</p>")
	}
	b.WriteString("</body></html>")
	page := b.String()
	if len(page) > cachedPageSize {
		page = page[:cachedPageSize]
	}
	return []byte(page)
}

// searchResultCount is the number of ResultElement entries generated
// per search, sized so the response XML lands near the paper's 5,024
// bytes (Table 9).
const searchResultCount = 3

// Search returns the result object for a query: a deeply structured
// object tree, the "large and complex" return class.
func Search(query string, start, maxResults int) *GoogleSearchResult {
	r := newRNG("search:" + query)
	n := searchResultCount
	if maxResults > 0 && maxResults < n {
		n = maxResults
	}
	elems := make([]ResultElement, n)
	for i := range elems {
		host := fmt.Sprintf("www.%s-%s.example.com", r.pick(_vocab), r.pick(_vocab))
		elems[i] = ResultElement{
			Summary:                   sentence(r, 9),
			URL:                       fmt.Sprintf("http://%s/%s/%d.html", host, r.pick(_vocab), r.intn(1000)),
			Snippet:                   sentence(r, 14) + " <b>" + query + "</b> " + sentence(r, 9),
			Title:                     titleCase(sentence(r, 4)),
			CachedSize:                fmt.Sprintf("%dk", 4+r.intn(90)),
			RelatedInformationPresent: r.intn(2) == 1,
			HostName:                  host,
			DirectoryCategory: DirectoryCategory{
				FullViewableName: "Top/Computers/" + titleCase(r.pick(_vocab)),
				SpecialEncoding:  "",
			},
			DirectoryTitle: titleCase(r.pick(_vocab)),
			Language:       "en",
		}
	}
	cats := []DirectoryCategory{
		{FullViewableName: "Top/Computers/Software", SpecialEncoding: ""},
	}
	return &GoogleSearchResult{
		DocumentFiltering:          false,
		SearchComments:             "",
		EstimatedTotalResultsCount: 1000 + r.intn(4_000_000),
		EstimateIsExact:            false,
		ResultElements:             elems,
		SearchQuery:                query,
		StartIndex:                 start + 1,
		EndIndex:                   start + n,
		SearchTips:                 "",
		DirectoryCategories:        cats,
		SearchTime:                 float64(50+r.intn(400)) / 1000.0,
	}
}

// sentence generates n space-separated vocabulary words.
func sentence(r *rng, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(r.pick(_vocab))
	}
	return b.String()
}

// titleCase upper-cases the first letter of each ASCII word.
func titleCase(s string) string {
	b := []byte(s)
	up := true
	for i, c := range b {
		if c == ' ' {
			up = true
			continue
		}
		if up && c >= 'a' && c <= 'z' {
			b[i] = c - ('a' - 'A')
		}
		up = false
	}
	return string(b)
}
