package rep

import (
	"fmt"

	"repro/internal/binser"
	"repro/internal/client"
	"repro/internal/typemap"
)

// binserKey generates the cache key from the binary-serialized form of
// the parameter values (Section 4.1.2-A): the working analog of the
// paper's Java-serialization key. Limitation: every parameter must be
// serializable (registered bean types or primitives).
//
// gobKey is the encoding/gob variant of the same idea; it is retained
// for the ablation benchmarks, which show gob's per-message overhead
// inverting the paper's ordering at these message sizes.
type binserKey struct {
	codec *binser.Codec
}

var (
	_ KeyGenerator = (*binserKey)(nil)
	_ KeyAppender  = (*binserKey)(nil)
)

// NewBinserKey returns the binary-serialization key strategy.
func NewBinserKey(reg *typemap.Registry) *binserKey {
	return &binserKey{codec: binser.NewCodec(reg)}
}

// Name implements KeyGenerator.
func (k *binserKey) Name() string { return "Binary serialization" }

// Key implements KeyGenerator.
func (k *binserKey) Key(ictx *client.Context) (string, error) {
	return keyString(k, ictx)
}

// AppendKey implements KeyAppender.
func (k *binserKey) AppendKey(dst []byte, ictx *client.Context) ([]byte, error) {
	dst = append(dst, ictx.Endpoint...)
	dst = append(dst, 0)
	dst = append(dst, ictx.Operation...)
	var err error
	for _, p := range ictx.Params {
		dst = append(dst, 0)
		dst = append(dst, p.Name...)
		dst = append(dst, '=')
		dst, err = k.codec.Append(dst, p.Value)
		if err != nil {
			return nil, fmt.Errorf("rep: binser key: param %s: %w", p.Name, err)
		}
	}
	return dst, nil
}

// binserStore caches the binary-serialized form of the application
// object (Section 4.2.3-A analog). Load decodes a fresh object graph;
// the byte payload is immune to client mutations by construction.
// Limitation: the object graph must be serializable (registered bean
// types, primitives, byte arrays).
type binserStore struct {
	codec *binser.Codec
}

var _ ValueStore = (*binserStore)(nil)

// NewBinserStore returns the binary-serialization representation.
func NewBinserStore(reg *typemap.Registry) *binserStore {
	return &binserStore{codec: binser.NewCodec(reg)}
}

// Name implements ValueStore.
func (s *binserStore) Name() string { return "Binary serialization" }

// Store implements ValueStore.
func (s *binserStore) Store(ictx *client.Context) (any, int, error) {
	data, err := s.codec.Marshal(ictx.Result)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrNotApplicable, err)
	}
	return data, len(data), nil
}

// Load implements ValueStore.
func (s *binserStore) Load(payload any) (any, error) {
	data, ok := payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("rep: binser store: payload is %T", payload)
	}
	v, err := s.codec.Unmarshal(data)
	if err != nil {
		return nil, corrupt("binser store", err)
	}
	return v, nil
}
