package cluster

import (
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
	// MaxPayload bounds request frames; ≤ 0 means DefaultMaxPayload.
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

	requests   *obs.Counter
	errors     *obs.Counter
	staleBoots *obs.Counter
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
// dispatch, write the response. A decode failure answers OpErr and
// then drops the connection — after a malformed frame the stream
// offset can no longer be trusted.
func (s *Server) serveConn(ctx context.Context, conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	var scratch []byte
	for {
		op, payload, err := readFrame(conn, s.cfg.MaxPayload)
		if err != nil {
			if isProtocolErr(err) {
				s.errors.Add(1)
				writeFrame(conn, &scratch, OpErr, encodeErr(err.Error()))
			}
			return
		}
		s.requests.Add(1)
		respOp, resp := s.dispatch(ctx, op, payload)
		if respOp == OpErr {
			s.errors.Add(1)
		}
		if err := writeFrame(conn, &scratch, respOp, resp); err != nil {
			return
		}
	}
}

func isProtocolErr(err error) bool {
	return errors.Is(err, ErrTruncated) || errors.Is(err, ErrFrameTooLarge) ||
		errors.Is(err, ErrVersionSkew) || errors.Is(err, ErrUnknownOpcode) ||
		errors.Is(err, ErrMalformed)
}

// meta captures the epoch view stamped on a response. Read before the
// operation's effect is computed it could under-report; the dispatch
// paths therefore read it after the tier call.
func (s *Server) meta() respMeta {
	return respMeta{bootID: s.bootID, version: s.cfg.Inv.Version()}
}

// dispatch executes one request and returns its response frame.
func (s *Server) dispatch(ctx context.Context, op Opcode, payload []byte) (Opcode, []byte) {
	switch op {
	case OpPing:
		return OpOK, encodeMetaOnly(s.meta())

	case OpGet:
		key, err := decodeKey(payload)
		if err != nil {
			return OpErr, encodeErr(err.Error())
		}
		e, ok, err := s.cfg.Tier.Get(ctx, key)
		if err != nil {
			return OpErr, encodeErr(err.Error())
		}
		if !ok {
			return OpMiss, encodeMetaOnly(s.meta())
		}
		resp, err := encodeValue(s.meta(), e)
		if err != nil {
			return OpErr, encodeErr(err.Error())
		}
		return OpValue, resp

	case OpPut:
		bootID, key, e, err := decodePut(payload)
		if err != nil {
			return OpErr, encodeErr(err.Error())
		}
		if bootID != s.bootID {
			// The sender's stamps belong to another incarnation; drop the
			// fill. The OK response's meta carries the current boot ID, so
			// the sender resyncs and its next fill sticks.
			s.staleBoots.Add(1)
			return OpOK, encodeMetaOnly(s.meta())
		}
		if err := s.cfg.Tier.Put(ctx, key, e); err != nil {
			return OpErr, encodeErr(err.Error())
		}
		return OpOK, encodeMetaOnly(s.meta())

	case OpDel:
		key, err := decodeKey(payload)
		if err != nil {
			return OpErr, encodeErr(err.Error())
		}
		if err := s.cfg.Tier.Delete(ctx, key); err != nil {
			return OpErr, encodeErr(err.Error())
		}
		return OpOK, encodeMetaOnly(s.meta())

	case OpBump:
		keyspaces, err := decodeBump(payload)
		if err != nil {
			return OpErr, encodeErr(err.Error())
		}
		if err := s.cfg.Tier.BumpEpoch(ctx, keyspaces); err != nil {
			return OpErr, encodeErr(err.Error())
		}
		return s.tableResp()

	case OpSync:
		return s.tableResp()
	}
	// readFrame validated the opcode, so only a response opcode sent as
	// a request lands here.
	return OpErr, encodeErr(fmt.Sprintf("cluster: opcode %#x is not a request", byte(op)))
}

// tableResp snapshots the epoch table. Version is read before the
// table: if a bump lands between the two reads the table is the newer
// state under an older version number, so the client will sync again —
// over-syncing is safe, a table newer than its version never hides a
// bump.
func (s *Server) tableResp() (Opcode, []byte) {
	m := s.meta()
	resp, err := encodeTable(m, s.cfg.Inv.Snapshot())
	if err != nil {
		return OpErr, encodeErr(err.Error())
	}
	return OpTable, resp
}
