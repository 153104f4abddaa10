package googleapi

import (
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/server"
	"repro/internal/soap"
	"repro/internal/typemap"
)

// NewDispatcher builds the dummy Google Web services dispatcher: a full
// SOAP server implementing the three operations with the synthetic data
// generators. It decodes every request and encodes every response, so
// back-end cost is realistic but bounded.
func NewDispatcher() (*server.Dispatcher, *soap.Codec, error) {
	reg := typemap.NewRegistry()
	if err := RegisterTypes(reg); err != nil {
		return nil, nil, err
	}
	codec := soap.NewCodec(reg)
	d := server.NewDispatcher(codec, Namespace)

	d.Register(OpSpellingSuggestion, func(params []soap.Param) (any, error) {
		phrase, err := stringParam(params, "phrase", 1)
		if err != nil {
			return nil, err
		}
		return SpellingSuggestion(phrase), nil
	})
	d.Register(OpGetCachedPage, func(params []soap.Param) (any, error) {
		url, err := stringParam(params, "url", 1)
		if err != nil {
			return nil, err
		}
		return CachedPage(url), nil
	})
	d.Register(OpGoogleSearch, func(params []soap.Param) (any, error) {
		q, err := stringParam(params, "q", 1)
		if err != nil {
			return nil, err
		}
		start, _ := intParam(params, "start", 2)
		maxResults, _ := intParam(params, "maxResults", 3)
		return Search(q, start, maxResults), nil
	})
	// The mutable item operations ride along with a private store so
	// every dispatcher can serve write-through traffic out of the box;
	// tests that need to inspect the backend state register their own
	// store over this one.
	NewItemStore().Register(d)
	return d, codec, nil
}

// stringParam finds a parameter by name, falling back to position.
func stringParam(params []soap.Param, name string, pos int) (string, error) {
	for _, p := range params {
		if p.Name == name {
			s, ok := p.Value.(string)
			if !ok {
				return "", fmt.Errorf("parameter %s is %T, not string", name, p.Value)
			}
			return s, nil
		}
	}
	if pos < len(params) {
		if s, ok := params[pos].Value.(string); ok {
			return s, nil
		}
	}
	return "", fmt.Errorf("missing parameter %s", name)
}

// intParam finds an int parameter by name or position.
func intParam(params []soap.Param, name string, pos int) (int, error) {
	for _, p := range params {
		if p.Name == name {
			if n, ok := p.Value.(int); ok {
				return n, nil
			}
		}
	}
	if pos < len(params) {
		if n, ok := params[pos].Value.(int); ok {
			return n, nil
		}
	}
	return 0, fmt.Errorf("missing parameter %s", name)
}

// fixedResponseHandler is the paper's "dummy Google Web services":
// it returns a precomputed response envelope for each operation —
// identical bytes on every request — so the back end cannot become
// the bottleneck in the portal scenario (Section 5.2). The operation
// is sniffed from the request body without parsing it.
type fixedResponseHandler struct {
	once      sync.Once
	initErr   error
	responses map[string][]byte
}

var _ http.Handler = (*fixedResponseHandler)(nil)

// NewFixedResponseHandler returns a handler with lazily precomputed
// responses.
func NewFixedResponseHandler() *fixedResponseHandler {
	return &fixedResponseHandler{}
}

// init precomputes one response envelope per operation.
func (h *fixedResponseHandler) init() {
	reg := typemap.NewRegistry()
	if err := RegisterTypes(reg); err != nil {
		h.initErr = err
		return
	}
	codec := soap.NewCodec(reg)
	h.responses = make(map[string][]byte, 3)
	for op, result := range map[string]any{
		OpSpellingSuggestion: SpellingSuggestion("web servises cashing"),
		OpGetCachedPage:      CachedPage("http://example.com/fixed"),
		OpGoogleSearch:       Search("fixed query", 0, 10),
	} {
		doc, err := codec.EncodeResponse(Namespace, op, result)
		if err != nil {
			h.initErr = err
			return
		}
		h.responses[op] = doc
	}
}

// ServeHTTP implements http.Handler.
func (h *fixedResponseHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.once.Do(h.init)
	if h.initErr != nil {
		http.Error(w, h.initErr.Error(), http.StatusInternalServerError)
		return
	}
	buf := make([]byte, 4096)
	n, _ := r.Body.Read(buf)
	body := string(buf[:n])
	for op, resp := range h.responses {
		if strings.Contains(body, op) {
			w.Header().Set("Content-Type", `text/xml; charset=utf-8`)
			_, _ = w.Write(resp)
			return
		}
	}
	http.Error(w, "unknown operation", http.StatusBadRequest)
}

// SearchParams builds the full doGoogleSearch parameter list in the
// real API's order: 6 strings, 2 ints, 2 booleans (Table 5).
func SearchParams(key, q string, start, maxResults int, filter bool, restrict string, safeSearch bool, lr string) []soap.Param {
	return []soap.Param{
		{Name: "key", Value: key},
		{Name: "q", Value: q},
		{Name: "start", Value: start},
		{Name: "maxResults", Value: maxResults},
		{Name: "filter", Value: filter},
		{Name: "restrict", Value: restrict},
		{Name: "safeSearch", Value: safeSearch},
		{Name: "lr", Value: lr},
		{Name: "ie", Value: "latin1"},
		{Name: "oe", Value: "latin1"},
	}
}

// SpellingParams builds the doSpellingSuggestion parameter list:
// 2 strings (Table 5).
func SpellingParams(key, phrase string) []soap.Param {
	return []soap.Param{
		{Name: "key", Value: key},
		{Name: "phrase", Value: phrase},
	}
}

// CachedPageParams builds the doGetCachedPage parameter list:
// 2 strings (Table 5).
func CachedPageParams(key, url string) []soap.Param {
	return []soap.Param{
		{Name: "key", Value: key},
		{Name: "url", Value: url},
	}
}
