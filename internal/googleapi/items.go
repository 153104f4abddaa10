package googleapi

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/invalidate"
	"repro/internal/server"
	"repro/internal/soap"
)

// This file adds a small mutable keyspace to the dummy Google service:
// a key/value item store with read operations (doGetItem, doListItems)
// and one write-through operation (doPutItem). The paper's three
// operations are all read-only, which is why its cache can live on TTLs
// alone; the item operations exist to exercise dependency-aware
// invalidation (package invalidate), where a write must be visible
// through the cache immediately rather than after a TTL expiry.

// Item operation names, following the WSDL's do* convention.
const (
	OpGetItem   = "doGetItem"
	OpPutItem   = "doPutItem"
	opListItems = "doListItems"
)

// ItemKeyspacePrefix prefixes the per-item keyspaces in ItemGraph;
// keyspaceAllItems covers the listing.
const (
	ItemKeyspacePrefix = "item:"
	keyspaceAllItems   = invalidate.Keyspace("items")
)

// ItemStore is the backend state behind the item operations: a
// mutex-guarded map. All item operations return plain strings, so the
// store needs no typemap registration.
type ItemStore struct {
	mu    sync.Mutex
	items map[string]string
}

// NewItemStore returns an empty store.
func NewItemStore() *ItemStore {
	return &ItemStore{items: make(map[string]string)}
}

// get returns the stored value for key, or "" when absent.
func (s *ItemStore) get(key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.items[key]
}

// Put stores value under key.
func (s *ItemStore) Put(key, value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items[key] = value
}

// list returns the stored keys, sorted, joined by commas.
func (s *ItemStore) list() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.items))
	for k := range s.items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// Register installs the item operations on d, backed by s. Registering
// a second store for the same dispatcher replaces the first — tests use
// this to substitute a store they can inspect.
func (s *ItemStore) Register(d *server.Dispatcher) {
	d.Register(OpGetItem, func(params []soap.Param) (any, error) {
		key, err := stringParam(params, "key", 1)
		if err != nil {
			return nil, err
		}
		return s.get(key), nil
	})
	d.Register(OpPutItem, func(params []soap.Param) (any, error) {
		key, err := stringParam(params, "key", 1)
		if err != nil {
			return nil, err
		}
		value, err := stringParam(params, "value", 2)
		if err != nil {
			return nil, err
		}
		s.Put(key, value)
		return "stored:" + key, nil
	})
	d.Register(opListItems, func(params []soap.Param) (any, error) {
		return s.list(), nil
	})
}

// ItemGraph declares the item operations' dependency sets for the
// invalidation graph: doGetItem reads the single item's keyspace,
// doListItems reads the listing keyspace, and doPutItem writes both —
// a put must invalidate the cached value of that item and any cached
// listing that may or may not include it.
func ItemGraph() *invalidate.Graph {
	item := invalidate.Param(ItemKeyspacePrefix, "key", 1)
	return invalidate.NewGraph().
		Read(OpGetItem, item).
		Read(opListItems, invalidate.Fixed(keyspaceAllItems)).
		Write(OpPutItem, item, invalidate.Fixed(keyspaceAllItems))
}

// GetItemParams builds the doGetItem parameter list.
func GetItemParams(key string) []soap.Param {
	return []soap.Param{{Name: "key", Value: key}}
}

// PutItemParams builds the doPutItem parameter list.
func PutItemParams(key, value string) []soap.Param {
	return []soap.Param{
		{Name: "key", Value: key},
		{Name: "value", Value: value},
	}
}
