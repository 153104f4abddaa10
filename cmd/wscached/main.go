// Command wscached is the shared L2 cache daemon: a standalone process
// holding one engine.Tier of wire-encoded entries and serving it to
// wsclient fleets over the compact binary protocol in internal/cluster.
// It is the cache engine behind a protocol and nothing else — no SOAP,
// no key generation, no representations.
//
// Clients route keys to daemons by consistent hashing, so a fleet runs
// N wscached processes and every client lists all N addresses. The
// daemon is representation-aware only in that it stores the wire bytes
// a client selected (raw, xmltmpl, binser, compact-sax, xml, gob) and hands them
// back verbatim; decoding happens client-side (an xmltmpl value is the
// origin's envelope, which the receiving client matches against its own
// skeletons). Epoch bumps pushed by
// any writer advance the daemon's epoch table, and every response
// carries the table version so other clients resync their L1s on next
// contact.
//
// Run it:
//
//	wscached -addr :7070 -obs-addr :7071 -max-bytes 268435456
//
// and point clients at it with wsclient -l2 host:7070.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/invalidate"
	"repro/internal/obs"
)

func main() {
	var (
		addr       = flag.String("addr", ":7070", "address to serve the cluster protocol on")
		obsAddr    = flag.String("obs-addr", "", "address for the metrics endpoint (empty disables it)")
		maxEntries = flag.Int("max-entries", 0, "entry bound for the shared cache (0 = unbounded)")
		maxBytes   = flag.Int("max-bytes", 0, "byte bound for the shared cache (0 = unbounded)")
		shards     = flag.Int("shards", 0, "shard count (0 picks the default)")
		maxPayload = flag.Int("max-payload", 0, "request frame payload bound in bytes (0 = 4 MiB default)")
		sweep      = flag.Duration("sweep", time.Minute, "expired-entry sweep interval (0 disables sweeping)")
	)
	flag.Parse()

	if err := run(*addr, *obsAddr, *maxEntries, *maxBytes, *shards, *maxPayload, *sweep); err != nil {
		fmt.Fprintln(os.Stderr, "wscached:", err)
		os.Exit(1)
	}
}

func run(addr, obsAddr string, maxEntries, maxBytes, shards, maxPayload int, sweep time.Duration) error {
	reg := obs.NewRegistry()
	inv := invalidate.New(nil, reg)

	cfg := engine.Config{MaxEntries: maxEntries, MaxBytes: maxBytes, Shards: shards}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if maxPayload < 0 {
		return fmt.Errorf("-max-payload is %d; want ≥ 0", maxPayload)
	}
	cache := engine.NewTier(cfg, inv, reg)
	if sweep > 0 {
		defer engine.NewSweeper(context.Background(), cache.SweepExpired, sweep).Shutdown()
	}

	srv, err := cluster.NewServer(cluster.ServerConfig{
		Tier:       cache,
		Inv:        inv,
		MaxPayload: maxPayload,
		Obs:        reg,
	})
	if err != nil {
		return err
	}

	if obsAddr != "" {
		obsSrv := &http.Server{
			Addr:              obsAddr,
			Handler:           obs.Handler(reg),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := obsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("wscached: obs endpoint: %v", err)
			}
		}()
		defer obsSrv.Close()
		log.Printf("wscached: metrics on http://%s/", obsAddr)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	go func() {
		<-ctx.Done()
		log.Printf("wscached: shutting down")
		srv.Close()
	}()

	log.Printf("wscached: serving on %s (boot %#x)", addr, srv.BootID())
	if err := srv.ListenAndServe(ctx, addr); err != nil {
		return err
	}
	log.Printf("wscached: stopped")
	return nil
}
