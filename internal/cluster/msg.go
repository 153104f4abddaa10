package cluster

import (
	"encoding/binary"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tier"
)

// Message payload layouts. All integers are big-endian fixed width.
//
//	get/del req:  key.Hi u64 | key.Lo u64
//	put req:      bootID u64 | key.Hi u64 | key.Lo u64 | ttlNanos i64 |
//	              repLen u8 | rep | nStamps u16 |
//	              { ksLen u16 | ks | epoch u64 }* | value (rest)
//
// The put bootID is the daemon incarnation the sender's stamps were
// minted against. A daemon receiving a put for another incarnation
// drops it: stamp epochs from a previous boot are meaningless against
// the fresh epoch cells and could mask bumps (a stamp minted at epoch
// 5 would stay "fresh" through the first five post-restart bumps).
//	sync req:     mirror
//	bump req:     mirror | n u16 | { ksLen u16 | ks }*
//	ping req:     empty
//	meta prefix (every response): bootID u64 | version u64
//	value resp:   meta | ttlNanos i64 | repLen u8 | rep | value (rest)
//	miss/ok resp: meta
//	table resp:   meta | n u32 | { ksLen u16 | ks | epoch u64 }*
//	err resp:     msgLen u16 | msg
//
// The mirror is the (bootID, version) pair the sender's copy of the
// daemon's epoch table is complete up to, in the meta layout (0, 0
// before first contact). When bootID is the daemon's own and its
// journal still reaches back to version, the table response holds only
// the keyspaces changed since, each with its current epoch; otherwise
// it is the whole table. Either way the response's version is one the
// table is complete up to, so the receiver folds both kinds the same
// way.
//
// Strings (rep names, keyspaces) are bounded by their length prefix;
// the frame layer already bounds the whole payload, so decoders only
// need internal consistency checks, all funneled through the cursor.

// respMeta is the prefix of every non-error response: which daemon
// incarnation answered and how many epoch mutations it has seen. The
// client compares both against its per-node mirror after every round
// trip.
type respMeta struct {
	bootID  uint64
	version uint64
}

// cursor is a sticky-error reader over a payload. After the first
// failure every subsequent read returns zero values, so decoders can
// read a whole layout linearly and check err once.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: short %s", errMalformed, what)
	}
}

func (c *cursor) u8(what string) byte {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 1 {
		c.fail(what)
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *cursor) u16(what string) uint16 {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 2 {
		c.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint16(c.b)
	c.b = c.b[2:]
	return v
}

func (c *cursor) u32(what string) uint32 {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 4 {
		c.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(c.b)
	c.b = c.b[4:]
	return v
}

func (c *cursor) u64(what string) uint64 {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 8 {
		c.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v
}

// bytes reads n bytes, aliasing the frame buffer.
func (c *cursor) bytes(n int, what string) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.b) < n {
		c.fail(what)
		return nil
	}
	v := c.b[:n:n]
	c.b = c.b[n:]
	return v
}

// str reads n bytes as a string (copying out of the frame buffer).
func (c *cursor) str(n int, what string) string {
	return string(c.bytes(n, what))
}

// repName reads a u8-prefixed representation name through reps.
func (c *cursor) repName(reps *interner) string {
	b := c.bytes(int(c.u8("rep length")), "rep name")
	if c.err != nil {
		return ""
	}
	return reps.intern(b)
}

// rest consumes the remaining bytes (the trailing value field).
func (c *cursor) rest() []byte {
	if c.err != nil {
		return nil
	}
	v := c.b
	c.b = nil
	return v
}

// done fails unless the payload was consumed exactly.
func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if len(c.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errMalformed, len(c.b))
	}
	return nil
}

// maxInterned bounds an interner. Representation names come from a
// closed registry — a handful of them — so an honest peer never gets
// near the bound; it only stops a hostile one from growing the table.
const maxInterned = 64

// interner hands out one shared string per distinct representation
// name a frame carries, so decoding a value or a put copies no name
// out of the frame. Lookups read a copy-on-write map without locking;
// the first sighting of a name, while the table is under maxInterned,
// publishes a new map with it. A name past the bound is copied, as if
// there were no table. The zero value is ready to use.
type interner struct {
	names atomic.Pointer[map[string]string]

	mu sync.Mutex // serializes publishers
}

// intern returns b as a string, shared with earlier calls for the
// same bytes while the table has room.
func (in *interner) intern(b []byte) string {
	var cur map[string]string
	if p := in.names.Load(); p != nil {
		cur = *p
		if s, ok := cur[string(b)]; ok {
			return s
		}
	}
	s := string(b)
	if len(cur) >= maxInterned {
		return s
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if p := in.names.Load(); p != nil {
		cur = *p
	}
	if t, ok := cur[s]; ok {
		return t
	}
	if len(cur) < maxInterned {
		next := make(map[string]string, len(cur)+1)
		maps.Copy(next, cur)
		next[s] = s
		in.names.Store(&next)
	}
	return s
}

// len returns the number of interned names.
func (in *interner) len() int {
	if p := in.names.Load(); p != nil {
		return len(*p)
	}
	return 0
}

func (c *cursor) meta() respMeta {
	return respMeta{bootID: c.u64("boot id"), version: c.u64("version")}
}

func appendMeta(dst []byte, m respMeta) []byte {
	dst = binary.BigEndian.AppendUint64(dst, m.bootID)
	return binary.BigEndian.AppendUint64(dst, m.version)
}

func appendStr8(dst []byte, s string, what string) ([]byte, error) {
	if len(s) > 0xFF {
		return dst, fmt.Errorf("%w: %s %d bytes long", errMalformed, what, len(s))
	}
	dst = append(dst, byte(len(s)))
	return append(dst, s...), nil
}

func appendStr16(dst []byte, s string, what string) ([]byte, error) {
	if len(s) > 0xFFFF {
		return dst, fmt.Errorf("%w: %s %d bytes long", errMalformed, what, len(s))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

// --- get / del ------------------------------------------------------

func encodeKey(key tier.Key) []byte {
	b := make([]byte, 0, 16)
	b = binary.BigEndian.AppendUint64(b, key.Hi)
	return binary.BigEndian.AppendUint64(b, key.Lo)
}

func decodeKey(payload []byte) (tier.Key, error) {
	c := cursor{b: payload}
	k := tier.Key{Hi: c.u64("key hi"), Lo: c.u64("key lo")}
	return k, c.done()
}

// --- put ------------------------------------------------------------

// appendPut appends a put request's payload to dst: the fields, then
// the value. The client builds the frame in place this way, so the
// value is copied once, from the caller's buffer into the frame.
func appendPut(dst []byte, bootID uint64, key tier.Key, e *tier.Entry) ([]byte, error) {
	dst = binary.BigEndian.AppendUint64(dst, bootID)
	dst = binary.BigEndian.AppendUint64(dst, key.Hi)
	dst = binary.BigEndian.AppendUint64(dst, key.Lo)
	dst = binary.BigEndian.AppendUint64(dst, uint64(e.TTL.Nanoseconds()))
	var err error
	if dst, err = appendStr8(dst, e.Rep, "rep name"); err != nil {
		return dst, err
	}
	if len(e.Stamps) > 0xFFFF {
		return dst, fmt.Errorf("%w: %d stamps", errMalformed, len(e.Stamps))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(e.Stamps)))
	for _, st := range e.Stamps {
		if dst, err = appendStr16(dst, st.Keyspace, "keyspace"); err != nil {
			return dst, err
		}
		dst = binary.BigEndian.AppendUint64(dst, st.Epoch)
	}
	return append(dst, e.Value...), nil
}

// decodePut decodes a put request. The entry's value aliases payload,
// which tier.Tier.Put only borrows: the tier copies what it keeps, so
// the daemon's read buffer can be reused for the next request, and a
// put the daemon refuses copies nothing. The rep name comes from reps
// and the stamps are copied out.
func decodePut(payload []byte, reps *interner) (uint64, tier.Key, tier.Entry, error) {
	c := cursor{b: payload}
	bootID := c.u64("boot id")
	k := tier.Key{Hi: c.u64("key hi"), Lo: c.u64("key lo")}
	e := tier.Entry{TTL: time.Duration(c.u64("ttl"))}
	e.Rep = c.repName(reps)
	n := int(c.u16("stamp count"))
	// Each stamp is at least 10 bytes; a count the payload cannot hold
	// is refused before it sizes the slice.
	if c.err == nil && n*10 > len(c.b) {
		return 0, tier.Key{}, tier.Entry{}, fmt.Errorf("%w: put declares %d stamps in %d bytes", errMalformed, n, len(c.b))
	}
	if c.err == nil && n > 0 {
		e.Stamps = make([]tier.Stamp, 0, n)
		for i := 0; i < n && c.err == nil; i++ {
			ks := c.str(int(c.u16("keyspace length")), "keyspace")
			e.Stamps = append(e.Stamps, tier.Stamp{Keyspace: ks, Epoch: c.u64("epoch")})
		}
	}
	e.Value = c.rest()
	if c.err != nil {
		return 0, tier.Key{}, tier.Entry{}, c.err
	}
	return bootID, k, e, nil
}

// --- value response -------------------------------------------------

func appendValue(dst []byte, m respMeta, e tier.Entry) ([]byte, error) {
	dst = appendMeta(dst, m)
	dst = binary.BigEndian.AppendUint64(dst, uint64(e.TTL.Nanoseconds()))
	var err error
	if dst, err = appendStr8(dst, e.Rep, "rep name"); err != nil {
		return dst, err
	}
	return append(dst, e.Value...), nil
}

// decodeValue decodes a value response. The entry's value aliases
// payload; its rep name comes from reps.
func decodeValue(payload []byte, reps *interner) (respMeta, tier.Entry, error) {
	c := cursor{b: payload}
	m := c.meta()
	e := tier.Entry{TTL: time.Duration(c.u64("ttl"))}
	e.Rep = c.repName(reps)
	e.Value = c.rest()
	if c.err != nil {
		return respMeta{}, tier.Entry{}, c.err
	}
	return m, e, nil
}

// --- meta-only responses (miss, ok) ---------------------------------

func encodeMetaOnly(m respMeta) []byte {
	return appendMeta(make([]byte, 0, 16), m)
}

func decodeMetaOnly(payload []byte) (respMeta, error) {
	c := cursor{b: payload}
	m := c.meta()
	return m, c.done()
}

// --- sync and bump requests -----------------------------------------
//
// A sync request is the mirror alone, so it shares the meta-only
// codec: encodeMetaOnly and decodeMetaOnly.

// maxBumpNames is the most keyspaces one bump request can carry (its
// count field is a u16).
const maxBumpNames = 0xFFFF

func encodeBump(mirror respMeta, keyspaces []string) ([]byte, error) {
	if len(keyspaces) > maxBumpNames {
		return nil, fmt.Errorf("%w: %d keyspaces", errMalformed, len(keyspaces))
	}
	b := appendMeta(nil, mirror)
	b = binary.BigEndian.AppendUint16(b, uint16(len(keyspaces)))
	var err error
	for _, ks := range keyspaces {
		if b, err = appendStr16(b, ks, "keyspace"); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func decodeBump(payload []byte) (respMeta, []string, error) {
	c := cursor{b: payload}
	mirror := c.meta()
	n := int(c.u16("keyspace count"))
	var out []string
	for i := 0; i < n && c.err == nil; i++ {
		out = append(out, c.str(int(c.u16("keyspace length")), "keyspace"))
	}
	if err := c.done(); err != nil {
		return respMeta{}, nil, err
	}
	return mirror, out, nil
}

// --- epoch table response -------------------------------------------

// tableEncoder appends a table response whose meta and entry count
// are known only after the entries have been written: it reserves
// their 20 bytes up front and finish fills them in.
type tableEncoder struct {
	b     []byte
	start int
	n     int
	err   error
}

func newTableEncoder(dst []byte) tableEncoder {
	return tableEncoder{b: append(dst, make([]byte, 16+4)...), start: len(dst)}
}

func (t *tableEncoder) add(ks string, epoch uint64) {
	if t.err != nil {
		return
	}
	if t.b, t.err = appendStr16(t.b, ks, "keyspace"); t.err == nil {
		t.b = binary.BigEndian.AppendUint64(t.b, epoch)
		t.n++
	}
}

func (t *tableEncoder) finish(m respMeta) ([]byte, error) {
	if t.err != nil {
		return t.b, t.err
	}
	h := t.b[t.start:]
	binary.BigEndian.PutUint64(h[0:], m.bootID)
	binary.BigEndian.PutUint64(h[8:], m.version)
	binary.BigEndian.PutUint32(h[16:], uint32(t.n))
	return t.b, nil
}

func decodeTable(payload []byte) (respMeta, map[string]uint64, error) {
	c := cursor{b: payload}
	m := c.meta()
	n := int(c.u32("entry count"))
	// Each entry is at least 10 bytes; an entry count inconsistent with
	// the payload size is refused before allocating the map for it.
	if c.err == nil && n*10 > len(c.b) {
		return respMeta{}, nil, fmt.Errorf("%w: table declares %d entries in %d bytes", errMalformed, n, len(c.b))
	}
	epochs := make(map[string]uint64, n)
	for i := 0; i < n && c.err == nil; i++ {
		ks := c.str(int(c.u16("keyspace length")), "keyspace")
		epochs[ks] = c.u64("epoch")
	}
	if err := c.done(); err != nil {
		return respMeta{}, nil, err
	}
	return m, epochs, nil
}

// --- error response -------------------------------------------------

func encodeErr(msg string) []byte {
	if len(msg) > 0xFFFF {
		msg = msg[:0xFFFF]
	}
	b := binary.BigEndian.AppendUint16(nil, uint16(len(msg)))
	return append(b, msg...)
}

func decodeErr(payload []byte) (string, error) {
	c := cursor{b: payload}
	msg := c.str(int(c.u16("message length")), "message")
	return msg, c.done()
}

// --- responses, as the client reads them ---------------------------

// response is one daemon response, decoded while the connection that
// carried it is still held: every frame but OpValue is read into the
// connection's reused buffer (readResponse), so nothing here aliases
// frame bytes except entry.Value, and that only for an OpValue frame,
// whose payload is a slice of its own.
type response struct {
	op    opcode
	meta  respMeta          // OpValue, OpMiss, OpOK, OpTable
	entry tier.Entry        // OpValue
	table map[string]uint64 // OpTable
	msg   string            // OpErr
}

// decodeResponse decodes a response frame by its opcode. A request
// opcode, which no daemon sends, is returned undecoded for the caller
// to refuse.
func decodeResponse(op opcode, payload []byte, reps *interner) (response, error) {
	res := response{op: op}
	var err error
	switch op {
	case opValue:
		res.meta, res.entry, err = decodeValue(payload, reps)
	case opMiss, opOK:
		res.meta, err = decodeMetaOnly(payload)
	case opTable:
		res.meta, res.table, err = decodeTable(payload)
	case opErr:
		res.msg, err = decodeErr(payload)
	}
	if err != nil {
		return response{}, err
	}
	return res, nil
}
