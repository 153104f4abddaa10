package rep

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"strconv"
	"sync"

	"repro/internal/client"
	"repro/internal/soap"
)

// KeyGenerator derives the cache key for an invocation. Per Section
// 4.1, the complete key covers the endpoint URL, the operation name,
// and all parameter names and values.
type KeyGenerator interface {
	// Name identifies the strategy in reports (Table 6 rows).
	Name() string
	// Key returns the cache key, or an error when the strategy's
	// limitation (Table 2) excludes these parameters.
	Key(ictx *client.Context) (string, error)
}

// KeyAppender is an optional KeyGenerator extension: AppendKey writes
// the key bytes onto dst and returns the extended slice. The cache
// prefers it over Key because the bytes can live in a pooled scratch
// buffer and be reduced to a digest without ever materializing a key
// string — on the hit path that is the difference between zero
// allocations and one per lookup.
type KeyAppender interface {
	// AppendKey appends the key for ictx to dst. The returned slice
	// must not be retained by the generator.
	AppendKey(dst []byte, ictx *client.Context) ([]byte, error)
}

// keyString materializes ka's key through the pooled scratch buffer,
// so a Key call pays exactly one allocation — the returned string.
func keyString(ka KeyAppender, ictx *client.Context) (string, error) {
	bp := keyBufPool.Get().(*[]byte)
	b, err := ka.AppendKey((*bp)[:0], ictx)
	if err != nil {
		keyBufPool.Put(bp)
		return "", err
	}
	key := string(b)
	*bp = b[:0] // keep any growth for the next key
	keyBufPool.Put(bp)
	return key, nil
}

// xmlMessageKey generates the key by serializing the request to its
// XML message (Section 4.1.1). No limitation on parameter types, but
// serialization is paid on every lookup — including hits.
type xmlMessageKey struct {
	codec *soap.Codec
}

var (
	_ KeyGenerator = (*xmlMessageKey)(nil)
	_ KeyAppender  = (*xmlMessageKey)(nil)
)

// NewXMLMessageKey returns the XML-message key strategy.
func NewXMLMessageKey(codec *soap.Codec) *xmlMessageKey {
	return &xmlMessageKey{codec: codec}
}

// Name implements KeyGenerator.
func (k *xmlMessageKey) Name() string { return "XML message" }

// Key implements KeyGenerator.
func (k *xmlMessageKey) Key(ictx *client.Context) (string, error) {
	return keyString(k, ictx)
}

// AppendKey implements KeyAppender.
func (k *xmlMessageKey) AppendKey(dst []byte, ictx *client.Context) ([]byte, error) {
	doc, err := k.codec.EncodeRequest(ictx.Namespace, ictx.Operation, ictx.Params)
	if err != nil {
		return nil, fmt.Errorf("rep: xml key: %w", err)
	}
	// The endpoint is not part of the message body; prepend it so two
	// services with identical operations do not collide.
	dst = append(dst, ictx.Endpoint...)
	dst = append(dst, 0)
	return append(dst, doc...), nil
}

// gobBufPool recycles the gob scratch buffers gobKey encodes into. The
// encoder itself is deliberately built fresh per key: a gob stream's
// first message carries the type definitions and later messages omit
// them, so a pooled encoder would generate history-dependent bytes —
// the same parameters would key differently depending on what the
// encoder had seen before.
var gobBufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// gobKey generates the key from the gob-serialized form of the
// parameter values (Section 4.1.2-A, the Java-serialization analog).
// Limitation: every parameter must be gob-encodable.
type gobKey struct{}

var (
	_ KeyGenerator = gobKey{}
	_ KeyAppender  = gobKey{}
)

// newGobKey returns the serialization key strategy.
func newGobKey() gobKey { return gobKey{} }

// Name implements KeyGenerator.
func (gobKey) Name() string { return "Gob serialization" }

// Key implements KeyGenerator.
func (k gobKey) Key(ictx *client.Context) (string, error) {
	buf := gobBufPool.Get().(*bytes.Buffer)
	defer gobBufPool.Put(buf)
	if err := k.encode(buf, ictx); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// AppendKey implements KeyAppender. Gob itself still allocates while
// encoding, but the scratch buffer is pooled and the key bytes never
// become a string.
func (k gobKey) AppendKey(dst []byte, ictx *client.Context) ([]byte, error) {
	buf := gobBufPool.Get().(*bytes.Buffer)
	defer gobBufPool.Put(buf)
	if err := k.encode(buf, ictx); err != nil {
		return nil, err
	}
	return append(dst, buf.Bytes()...), nil
}

// encode writes the key bytes into the (reset) scratch buffer.
func (gobKey) encode(buf *bytes.Buffer, ictx *client.Context) error {
	buf.Reset()
	buf.WriteString(ictx.Endpoint)
	buf.WriteByte(0)
	buf.WriteString(ictx.Operation)
	buf.WriteByte(0)
	enc := gob.NewEncoder(buf)
	for _, p := range ictx.Params {
		if err := registerGobValue(p.Value); err != nil {
			return fmt.Errorf("rep: gob key: param %s: %w", p.Name, err)
		}
		if err := enc.Encode(p.Name); err != nil {
			return fmt.Errorf("rep: gob key: %w", err)
		}
		if err := encodeGobAny(enc, p.Value); err != nil {
			return fmt.Errorf("rep: gob key: param %s: %w", p.Name, err)
		}
	}
	return nil
}

// StringKey generates the key from the string forms of the parameter
// values (Section 4.1.2-B, the toString analog). Limitation: every
// parameter must be a primitive or implement fmt.Stringer; types whose
// only string form would be their address are rejected, exactly as the
// paper rejects Object.toString.
type StringKey struct{}

var (
	_ KeyGenerator = StringKey{}
	_ KeyAppender  = StringKey{}
)

// NewStringKey returns the string key strategy.
func NewStringKey() StringKey { return StringKey{} }

// Name implements KeyGenerator.
func (StringKey) Name() string { return "String concatenation" }

// Key implements KeyGenerator.
func (k StringKey) Key(ictx *client.Context) (string, error) {
	return keyString(k, ictx)
}

// AppendKey implements KeyAppender. Every value is rendered with the
// strconv Append family straight into dst, so key generation itself
// performs no heap allocation once dst has capacity.
//
//lint:hotpath
func (StringKey) AppendKey(dst []byte, ictx *client.Context) ([]byte, error) {
	dst = append(dst, ictx.Endpoint...)
	dst = append(dst, 0)
	dst = append(dst, ictx.Operation...)
	for i := range ictx.Params {
		p := &ictx.Params[i]
		dst = append(dst, 0)
		dst = append(dst, p.Name...)
		dst = append(dst, '=')
		var err error
		dst, err = appendString(dst, p.Value)
		if err != nil {
			//lint:ignore hotpath unrepresentable param type: the lookup is abandoned, so this path never runs on a hit
			return nil, fmt.Errorf("rep: string key: param %s: %w", p.Name, err)
		}
	}
	return dst, nil
}

// appendString renders one parameter value onto dst.
//
//lint:hotpath
func appendString(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, "<nil>"...), nil
	case string:
		return append(dst, x...), nil
	case bool:
		return strconv.AppendBool(dst, x), nil
	case int:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case int8:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case int16:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case int32:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case int64:
		return strconv.AppendInt(dst, x, 10), nil
	case uint:
		return strconv.AppendUint(dst, uint64(x), 10), nil
	case uint8:
		return strconv.AppendUint(dst, uint64(x), 10), nil
	case uint16:
		return strconv.AppendUint(dst, uint64(x), 10), nil
	case uint32:
		return strconv.AppendUint(dst, uint64(x), 10), nil
	case uint64:
		return strconv.AppendUint(dst, x, 10), nil
	case float32:
		return strconv.AppendFloat(dst, float64(x), 'g', -1, 32), nil
	case float64:
		return strconv.AppendFloat(dst, x, 'g', -1, 64), nil
	case []byte:
		// Byte-array parameters are rare for cacheable retrievals but
		// cheap to render faithfully.
		return append(dst, x...), nil
	case fmt.Stringer:
		return append(dst, x.String()...), nil
	default:
		//lint:ignore hotpath unrepresentable param type: the lookup is abandoned, so this path never runs on a hit
		return nil, fmt.Errorf("type %T has no value-based string form", v)
	}
}

// encodeGobAny encodes a dynamically typed value. Gob cannot encode a
// bare interface, so the concrete value is encoded along with its type
// name (registered by registerGobValue).
func encodeGobAny(enc *gob.Encoder, v any) error {
	if v == nil {
		return enc.Encode("")
	}
	if err := enc.Encode(reflect.TypeOf(v).String()); err != nil {
		return err
	}
	return enc.EncodeValue(reflect.ValueOf(v))
}
