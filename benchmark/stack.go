package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/invalidate"
	"repro/internal/obs"
	"repro/internal/rep"
	"repro/internal/server"
	"repro/internal/soap"
	"repro/internal/tier"
	"repro/internal/transport"
	"repro/internal/typemap"
)

// This file assembles the production stack from public constructors
// only, the way the binaries do: an origin (googleapi dispatcher behind
// a loopback http.Server), an L2 daemon built as cmd/wscached.run
// builds it, and client "processes" (client.Call → core.Cache →
// cluster.Remote → transport.HTTP). With a Tracer the same stack is
// built with the timing wrappers of trace.go at every seam; without
// one there are no wrappers at all.

const (
	soapAction     = "urn:GoogleSearchAction"
	daemonMaxBytes = 64 << 20
	entryTTL       = time.Hour
)

// newCodec builds a process's own type registry and SOAP codec.
func newCodec() (*typemap.Registry, *soap.Codec, error) {
	reg := typemap.NewRegistry()
	if err := googleapi.RegisterTypes(reg); err != nil {
		return nil, nil, err
	}
	return reg, soap.NewCodec(reg), nil
}

// origin is the backend web service on loopback HTTP.
type origin struct {
	url   string
	items *googleapi.ItemStore
	// respCache is set only for the server-side-cache origin.
	respCache *server.ResponseCache
	// calls counts requests reaching the dispatcher's http.Handler.
	calls atomic.Int64

	srv  *http.Server
	done chan error
}

// startOrigin serves the dummy Google dispatcher plus an item store.
// With serverCache the dispatcher sits behind server.ResponseCache.
func startOrigin(tr *Tracer, serverCache bool) (*origin, error) {
	disp, _, err := googleapi.NewDispatcher()
	if err != nil {
		return nil, err
	}
	o := &origin{items: googleapi.NewItemStore(), done: make(chan error, 1)}
	o.items.Register(disp)
	var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o.calls.Add(1)
		disp.ServeHTTP(w, r)
	})
	if serverCache {
		o.respCache = server.NewResponseCache(disp, server.ResponseCacheConfig{})
		h = o.respCache
	}
	if tr != nil {
		h = tracedOrigin{inner: h, t: tr}
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	o.url = "http://" + lis.Addr().String() + "/"
	o.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { o.done <- o.srv.Serve(lis) }()
	return o, nil
}

// originCalls is the number of requests the backend had to compute:
// handler invocations, or for the server-side cache its misses (its
// hits never reach the dispatcher).
func (o *origin) originCalls() int64 {
	if o.respCache != nil {
		_, misses := o.respCache.Stats()
		return misses
	}
	return o.calls.Load()
}

func (o *origin) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := o.srv.Shutdown(ctx)
	if serr := <-o.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// daemon is an in-process wscached.
type daemon struct {
	addr    string
	cache   *core.Cache
	srv     *cluster.Server
	sweeper *core.Sweeper
	done    chan error
}

// startDaemon mirrors cmd/wscached.run: a core.Cache of wire entries
// behind cluster.NewServer, sharing one invalidator and one registry.
func startDaemon(ctx context.Context, tr *Tracer) (*daemon, error) {
	reg := obs.NewRegistry()
	inv := invalidate.New(nil, reg)
	cache, err := core.New(core.Config{
		KeyGen:      rep.NewStringKey(),
		Store:       rep.NewCloneCopyStore(),
		MaxBytes:    daemonMaxBytes,
		DefaultTTL:  entryTTL,
		Invalidator: inv,
		Obs:         reg,
	})
	if err != nil {
		return nil, err
	}
	var t tier.Tier = cache
	if tr != nil {
		t = &tracedTier{Tier: cache, t: tr, get: spDaemonGet, put: spDaemonPut}
	}
	srv, err := cluster.NewServer(cluster.ServerConfig{Tier: t, Inv: inv, Obs: reg})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		addr:    lis.Addr().String(),
		cache:   cache,
		srv:     srv,
		sweeper: core.NewSweeperContext(ctx, cache, time.Minute),
		done:    make(chan error, 1),
	}
	go func() { d.done <- srv.Serve(ctx, lis) }()
	return d, nil
}

func (d *daemon) close() error {
	d.sweeper.Shutdown()
	err := d.srv.Close()
	if serr := <-d.done; err == nil {
		err = serr
	}
	return err
}

// stackConfig is what differs between client processes.
type stackConfig struct {
	l1MaxEntries int  // 0 = unbounded
	acceptStream bool // consumer relays bytes (client.Options.AcceptStream)
	// staticSearchRep puts doGoogleSearch under the static Section 6
	// classifier instead of the adaptive selector (see setupL1).
	staticSearchRep bool
	conns           int // connections to the origin and pool size to the daemon
	// bumpTrace, when tracing, is the one client this stack belongs to;
	// its epoch pushes are timed (see traceBumps).
	bumpTrace *clientTrace
}

// stack is one client process: its own codec, invalidator, L1 and
// connections, sharing the origin and the daemon with its peers.
type stack struct {
	cache  *core.Cache
	inv    *invalidate.Invalidator
	remote *cluster.Remote
	httpTr *http.Transport

	search, getItem, putItem *client.Call
}

func newStack(ctx context.Context, tr *Tracer, o *origin, d *daemon, cfg stackConfig) (*stack, error) {
	reg, codec, err := newCodec()
	if err != nil {
		return nil, err
	}
	inv := invalidate.New(googleapi.ItemGraph(), nil)
	var afterRemote func()
	if cfg.bumpTrace != nil {
		afterRemote = traceBumps(inv, cfg.bumpTrace)
	}
	remote, err := cluster.New(cluster.Config{
		Addrs:       []string{d.addr},
		Inv:         inv,
		PoolSize:    cfg.conns,
		BaseContext: ctx,
	})
	if err != nil {
		return nil, err
	}
	if afterRemote != nil {
		afterRemote()
	}

	var keygen rep.KeyGenerator = rep.NewStringKey()
	var l2 tier.Tier = remote
	httpTr := &http.Transport{MaxIdleConnsPerHost: cfg.conns}
	var tp transport.Transport = &transport.HTTP{Client: &http.Client{Transport: httpTr, Timeout: transport.DefaultTimeout}}
	handlers := make([]client.Handler, 0, 3)
	if tr != nil {
		keygen = tracedKey{}
		l2 = &tracedTier{Tier: remote, t: tr, get: spRemoteGet, put: spRemotePut}
		tp = tracedTransport{inner: tp}
		handlers = append(handlers, tracedHandler{spCore})
	}
	reps := rep.NewRegistry(reg, codec)
	policy := core.NewPolicy(0, googleapi.OpGoogleSearch, googleapi.OpGetItem)
	if cfg.staticSearchRep {
		auto, err := reps.Store("auto")
		if err != nil {
			return nil, err
		}
		policy.Operations[googleapi.OpGoogleSearch] = core.OperationPolicy{Cacheable: true, Store: auto}
	}
	cache, err := core.New(core.Config{
		KeyGen:      keygen,
		Rep:         reps,
		DefaultTTL:  entryTTL,
		MaxEntries:  cfg.l1MaxEntries,
		Invalidator: inv,
		Tiers:       []tier.Tier{l2},
		Policy:      policy,
	})
	if err != nil {
		remote.Close()
		return nil, err
	}
	handlers = append(handlers, cache)
	if tr != nil {
		handlers = append(handlers, tracedHandler{spPivot})
	}
	call := func(op string) *client.Call {
		return client.NewCall(codec, tp, o.url, googleapi.Namespace, op, soapAction,
			client.Options{RecordEvents: true, AcceptStream: cfg.acceptStream, Handlers: handlers})
	}
	return &stack{
		cache: cache, inv: inv, remote: remote, httpTr: httpTr,
		search:  call(googleapi.OpGoogleSearch),
		getItem: call(googleapi.OpGetItem),
		putItem: call(googleapi.OpPutItem),
	}, nil
}

func (s *stack) close() {
	s.remote.Close()
	s.httpTr.CloseIdleConnections()
}

// env is one workload's scenery; closers run in reverse order.
type env struct {
	ctx     context.Context
	cancel  context.CancelFunc
	tr      *Tracer
	origin  *origin
	daemon  *daemon
	stacks  []*stack
	closers []func() error
}

func newEnv(tr *Tracer, serverCache bool) (*env, error) {
	ctx, cancel := context.WithCancel(context.Background())
	e := &env{ctx: ctx, cancel: cancel, tr: tr}
	var err error
	if e.origin, err = startOrigin(tr, serverCache); err != nil {
		cancel()
		return nil, fmt.Errorf("origin: %w", err)
	}
	e.closers = append(e.closers, e.origin.close)
	return e, nil
}

func (e *env) withDaemon() error {
	d, err := startDaemon(e.ctx, e.tr)
	if err != nil {
		return fmt.Errorf("daemon: %w", err)
	}
	e.daemon = d
	e.closers = append(e.closers, d.close)
	return nil
}

func (e *env) addStack(cfg stackConfig) (*stack, error) {
	s, err := newStack(e.ctx, e.tr, e.origin, e.daemon, cfg)
	if err != nil {
		return nil, fmt.Errorf("client stack: %w", err)
	}
	e.stacks = append(e.stacks, s)
	e.closers = append(e.closers, func() error { s.close(); return nil })
	return s, nil
}

// close stops every server and waits for it; after it returns no
// goroutine of the stack is still writing spans.
func (e *env) close() error {
	var first error
	for i := len(e.closers) - 1; i >= 0; i-- {
		if err := e.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	e.cancel()
	return first
}
