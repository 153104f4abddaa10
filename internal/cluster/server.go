package cluster

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/invalidate"
	"repro/internal/obs"
	"repro/internal/tier"
)

// ServerConfig configures a cluster daemon.
type ServerConfig struct {
	// Tier stores and serves the entries — any tier.Tier; wscached uses
	// an engine.Tier. Required.
	Tier tier.Tier
	// Inv is the daemon's epoch table, stamped into every response and
	// served by OpSync/OpBump. It must be the same Invalidator the Tier
	// checks stamps against (for engine.Tier, the one given to NewTier) or
	// epoch bumps will not invalidate stored entries. Required.
	Inv *invalidate.Invalidator
	// MaxPayload bounds request frames; ≤ 0 means defaultMaxPayload.
	MaxPayload int
	// Obs receives daemon counters ("clusterd.*"). Optional.
	Obs *obs.Registry
}

// Server answers the cluster protocol over a listener. One goroutine
// per connection, one request in flight per connection (the client
// pipelines by pooling connections, not frames).
type Server struct {
	cfg    ServerConfig
	bootID uint64

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// reps interns the rep names of put requests, which the tier keeps
	// with each entry.
	reps interner

	requests   *obs.Counter
	errors     *obs.Counter
	staleBoots *obs.Counter
	// tableDelta and tableFull count table responses by kind: the epochs
	// changed since the sender's mirror, or the whole table.
	tableDelta *obs.Counter
	tableFull  *obs.Counter
}

// NewServer validates cfg and mints the daemon's boot ID — a random
// 64-bit value clients use to detect a restart (and with it the loss
// of every epoch bump this incarnation had absorbed).
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Tier == nil {
		return nil, errors.New("cluster: ServerConfig.Tier is required")
	}
	if cfg.Inv == nil {
		return nil, errors.New("cluster: ServerConfig.Inv is required")
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return nil, fmt.Errorf("cluster: boot id: %w", err)
	}
	bootID := binary.BigEndian.Uint64(b[:])
	if bootID == 0 {
		bootID = 1 // 0 is the client's "never contacted" sentinel
	}
	reg := obs.Or(cfg.Obs)
	return &Server{
		cfg:        cfg,
		bootID:     bootID,
		conns:      make(map[net.Conn]struct{}),
		requests:   reg.Counter("clusterd.requests"),
		errors:     reg.Counter("clusterd.errors"),
		staleBoots: reg.Counter("clusterd.stale_boot_puts"),
		tableDelta: reg.Counter("clusterd.table_delta"),
		tableFull:  reg.Counter("clusterd.table_full"),
	}, nil
}

// BootID returns this incarnation's identifier.
func (s *Server) BootID() uint64 { return s.bootID }

// Serve accepts connections on lis until Close. ctx is the root for
// every tier call a request dispatches; the binary owns it. Serve
// blocks; the error is nil after a clean Close.
func (s *Server) Serve(ctx context.Context, lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return errors.New("cluster: server closed")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(ctx, conn)
	}
}

// ListenAndServe listens on addr (TCP) and serves.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, lis)
}

// Close stops the listener, closes every live connection, and waits
// for their handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	lis := s.lis
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	s.wg.Wait()
	return err
}

// serveConn runs the frame loop for one connection: read a request,
// dispatch, write the response. Requests are read through one
// bufio.Reader, so a request costs one read syscall, into a payload
// buffer reused from request to request; the response is built in
// place in a write buffer reused the same way. Neither outlives the
// request that filled it: the daemon never retains its read buffer
// (the decoders copy out everything a request leaves behind but a
// put's value, which tier.Tier.Put borrows and the tier copies if it
// keeps it), and a buffer one large frame grew past maxRetainedBuf is dropped
// afterwards. A decode failure answers OpErr and then drops the
// connection — after a malformed frame the stream offset can no longer
// be trusted.
func (s *Server) serveConn(ctx context.Context, conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	br := bufio.NewReader(conn)
	var in, out []byte
	for {
		op, payload, err := readFrameInto(br, s.cfg.MaxPayload, in)
		if err != nil {
			if isProtocolErr(err) {
				s.errors.Add(1)
				writeFrame(conn, &out, opErr, encodeErr(err.Error()))
			}
			return
		}
		s.requests.Add(1)
		out = s.respond(ctx, out, op, payload)
		if _, err := conn.Write(out); err != nil {
			return
		}
		in, out = retain(payload), retain(out)
	}
}

func isProtocolErr(err error) bool {
	return errors.Is(err, errTruncated) || errors.Is(err, errFrameTooLarge) ||
		errors.Is(err, errVersionSkew) || errors.Is(err, errUnknownOpcode) ||
		errors.Is(err, errMalformed)
}

// meta captures the epoch view stamped on a response. Read before the
// operation's effect is computed it could under-report; the dispatch
// paths therefore read it after the tier call.
func (s *Server) meta() respMeta {
	return respMeta{bootID: s.bootID, version: s.cfg.Inv.Version()}
}

// respond builds the response frame to one request in buf, reusing
// its storage.
func (s *Server) respond(ctx context.Context, buf []byte, op opcode, payload []byte) []byte {
	frame := appendFrame(buf[:0], 0, nil)
	respOp, frame, err := s.dispatch(ctx, frame, op, payload)
	if err != nil {
		s.errors.Add(1)
		respOp, frame = opErr, append(frame[:headerSize], encodeErr(err.Error())...)
	}
	return finishFrame(frame, respOp)
}

// dispatch executes one request, appending the response payload to b
// and returning its opcode. An error becomes an OpErr response.
func (s *Server) dispatch(ctx context.Context, b []byte, op opcode, payload []byte) (opcode, []byte, error) {
	switch op {
	case opPing:
		return opOK, appendMeta(b, s.meta()), nil

	case opGet:
		key, err := decodeKey(payload)
		if err != nil {
			return 0, b, err
		}
		e, ok, err := s.cfg.Tier.Get(ctx, key)
		if err != nil {
			return 0, b, err
		}
		if !ok {
			return opMiss, appendMeta(b, s.meta()), nil
		}
		b, err = appendValue(b, s.meta(), e)
		return opValue, b, err

	case opPut:
		bootID, key, e, err := decodePut(payload, &s.reps)
		if err != nil {
			return 0, b, err
		}
		if bootID != s.bootID {
			// The sender's stamps belong to another incarnation; drop the
			// fill. The OK response's meta carries the current boot ID, so
			// the sender resyncs and its next fill sticks.
			s.staleBoots.Add(1)
			return opOK, appendMeta(b, s.meta()), nil
		}
		if err := s.cfg.Tier.Put(ctx, key, e); err != nil {
			return 0, b, err
		}
		return opOK, appendMeta(b, s.meta()), nil

	case opDel:
		key, err := decodeKey(payload)
		if err != nil {
			return 0, b, err
		}
		if err := s.cfg.Tier.Delete(ctx, key); err != nil {
			return 0, b, err
		}
		return opOK, appendMeta(b, s.meta()), nil

	case opBump:
		mirror, keyspaces, err := decodeBump(payload)
		if err != nil {
			return 0, b, err
		}
		if err := s.cfg.Tier.BumpEpoch(ctx, keyspaces); err != nil {
			return 0, b, err
		}
		b, err = s.tableResp(b, mirror)
		return opTable, b, err

	case opSync:
		mirror, err := decodeMetaOnly(payload)
		if err != nil {
			return 0, b, err
		}
		b, err = s.tableResp(b, mirror)
		return opTable, b, err
	}
	// readFrameInto validated the opcode, so only a response opcode sent
	// as a request lands here.
	return 0, b, fmt.Errorf("cluster: opcode %#x is not a request", byte(op))
}

// tableResp appends the table response for a sender whose copy of the
// epoch table is complete up to mirror. Within this incarnation, and
// while the journal reaches back that far, that is the keyspaces
// changed since, stamped with the version the journal read them under.
// Otherwise (first contact, a restart, a sender that fell behind the
// journal) it is the whole table, stamped with a version read before
// it: if a bump lands between the two reads the table is the newer
// state under an older version number, so the client will sync again —
// over-syncing is safe, a table newer than its version never hides a
// bump. A whole table carries only the nonzero epochs, read straight
// from the cells: a keyspace absent from a mirror reads as epoch 0
// there, and within one incarnation a mirror never holds more than the
// daemon, so a zero entry would change nothing.
func (s *Server) tableResp(b []byte, mirror respMeta) ([]byte, error) {
	t := newTableEncoder(b)
	if mirror.bootID == s.bootID {
		if now, ok := s.cfg.Inv.Since(mirror.version, func(ks invalidate.Keyspace, epoch uint64) {
			t.add(string(ks), epoch)
		}); ok {
			s.tableDelta.Add(1)
			return t.finish(respMeta{bootID: s.bootID, version: now})
		}
	}
	s.tableFull.Add(1)
	m := s.meta()
	s.cfg.Inv.Range(func(ks invalidate.Keyspace, epoch uint64) {
		if epoch != 0 {
			t.add(string(ks), epoch)
		}
	})
	return t.finish(m)
}
