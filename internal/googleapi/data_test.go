package googleapi

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// goldenInputs are the fixed inputs TestGeneratorsGolden digests: an
// empty query, a non-ASCII one, separators, one longer than a cached
// page, and a spread of ordinary words, phrases and URLs.
func goldenInputs() []string {
	in := []string{"", " ", "  two  spaces  ", "héllo wörld 日本語", "tab\there", "<b>&amp;</b>", "http://example.com/fixed", strings.Repeat("long ", 800)}
	for i := 0; len(in) < 200; i++ {
		switch i % 3 {
		case 0:
			in = append(in, fmt.Sprintf("q%d", i))
		case 1:
			in = append(in, fmt.Sprintf("web servises %d", i))
		default:
			in = append(in, fmt.Sprintf("http://host%d.example/page/%d", i, i*7))
		}
	}
	return in
}

// generatorsGolden is the SHA-256 of every generator output over
// goldenInputs: Search at start 0 and 3 with maxResults 0, 1, 2 and
// 10, CachedPage and SpellingSuggestion. It was recorded from the
// fmt/strings.Builder generators that preceded the one-string ones.
const generatorsGolden = "0bd92b284cd397111809a28038909969714c07e4bf73d82681ed663813d75c1b"

// TestGeneratorsGolden pins the stand-in origin byte for byte: the
// paper's dummy services return the same response for the same
// request, and every cached and referee measurement depends on exactly
// these bytes. A rewrite of the generators must keep the digest.
func TestGeneratorsGolden(t *testing.T) {
	h := sha256.New()
	for _, q := range goldenInputs() {
		for _, start := range []int{0, 3} {
			for _, n := range []int{0, 1, 2, 10} {
				fmt.Fprintf(h, "%#v\n", *Search(q, start, n))
			}
		}
		fmt.Fprintf(h, "%q\n%q\n", CachedPage(q), SpellingSuggestion(q))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != generatorsGolden {
		t.Errorf("generator digest %s, want %s", got, generatorsGolden)
	}
}

// TestSearchAllocs bounds one Search, the stand-in origin's work on
// every referee origin miss: the result with its slices' backing
// arrays, and the one string its text fields are sliced from.
func TestSearchAllocs(t *testing.T) {
	queries := make([]string, 101)
	for i := range queries {
		queries[i] = "never repeating " + strconv.Itoa(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		Search(queries[i], 0, 10)
		i++
	})
	if allocs > 4 {
		t.Errorf("Search: %v allocs per call, want ≤ 4", allocs)
	}
}
