package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/soap"
	"repro/internal/tier"
)

// params are the inputs of one set-up. Everything a workload sends is
// generated here from the seed; the program under test sees only the
// generated inputs.
type params struct {
	seed int64
	tr   *Tracer // nil: tracing off, no wrappers installed
	// traces are the runner's per-client span stacks when tracing; a
	// stack whose epoch pushes are timed must know its client at
	// construction (see traceBumps).
	traces  []*clientTrace
	clients int // closed-loop clients for the single-process workloads
	scale   int // 1 at full size; the smoke test divides key counts by 16
}

// instance is one set-up workload, ready to be driven.
type instance struct {
	env     *env
	clients int
	warm    int // warm-up operations per client, part of set-up
	// op performs client c's i-th operation and checks the response.
	op func(ctx context.Context, c, i int) bool
	// wrong returns how many operations' worth of aggregate outcomes
	// (served by the wrong tier, origin reached when it must not be)
	// a phase got wrong, given the counter deltas over the phase.
	wrong func(d counts, ops int64) int64
	// lagReads counts mixed_rw reads that legitimately saw another
	// process's pre-write value (see setupMixedRW); nil elsewhere.
	lagReads *atomic.Int64
}

// counts is a snapshot of the public counters of every layer.
type counts struct {
	originCalls        int64
	core               core.Stats // summed over the client stacks
	daemon             tier.Stats
	srvHits, srvMisses int64
	epochBumps         uint64 // invalidator versions summed over the client stacks
	keyspaces          int
	lagReads           int64
}

func (in *instance) snapshot() counts {
	c := counts{originCalls: in.env.origin.originCalls()}
	for _, s := range in.env.stacks {
		st := s.cache.Stats()
		c.core.Hits += st.Hits
		c.core.Misses += st.Misses
		c.core.Evictions += st.Evictions
		c.core.Invalidations += st.Invalidations
		c.core.Coalesced += st.Coalesced
		c.core.TierHits += st.TierHits
		c.core.TierErrors += st.TierErrors
		c.core.Errors += st.Errors
		c.core.Entries += st.Entries
		c.core.Bytes += st.Bytes
		c.epochBumps += s.inv.Version()
		c.keyspaces += len(s.inv.Keyspaces())
	}
	if d := in.env.daemon; d != nil {
		c.daemon = d.cache.TierStats()
	}
	if rc := in.env.origin.respCache; rc != nil {
		c.srvHits, c.srvMisses = rc.Stats()
	}
	if in.lagReads != nil {
		c.lagReads = in.lagReads.Load()
	}
	return c
}

// since returns the change from b to c for the cumulative counters and
// c's value for the levels (entries, bytes, keyspaces).
func (c counts) since(b counts) counts {
	d := c
	d.originCalls -= b.originCalls
	d.core.Hits -= b.core.Hits
	d.core.Misses -= b.core.Misses
	d.core.Evictions -= b.core.Evictions
	d.core.Invalidations -= b.core.Invalidations
	d.core.Coalesced -= b.core.Coalesced
	d.core.TierHits -= b.core.TierHits
	d.core.TierErrors -= b.core.TierErrors
	d.core.Errors -= b.core.Errors
	d.srvHits -= b.srvHits
	d.srvMisses -= b.srvMisses
	d.epochBumps -= b.epochBumps
	d.lagReads -= b.lagReads
	return d
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

type workload struct {
	name, why string
	setup     func(p params) (*instance, error)
}

// The names are fixed: later issues cite them.
var workloads = []workload{
	{"l1_obj", "64 hot doGoogleSearch queries, object consumer, 100% L1 hits: keygen, shard lookup, epoch check and copy-out are all the work",
		func(p params) (*instance, error) { return setupL1(p, false) }},
	{"l1_stream", "same hot set, byte-relaying consumer (AcceptStream): raw replay / template splice instead of object copy-out",
		func(p params) (*instance, error) { return setupL1(p, true) }},
	{"l2_shared", "doGetItem over 32768 keys seeded by another process, L1 of 1024: every read misses L1 and hits the daemon over loopback",
		setupL2Shared},
	{"server_hit", "cacheless raw HTTP client posting 64 pre-encoded envelopes to server.ResponseCache: the second cache engine, bypassing client/core/cluster",
		setupServerHit},
	{"origin_miss", "never-repeating doGoogleSearch: misses L1 and L2, pays SOAP encode, HTTP, dispatch, decode, copy-in, tier put and eviction",
		setupOriginMiss},
	{"mixed_rw", "two processes sharing origin and daemon, Zipf(1.1) over 8192 items, 95% reads / 5% writes: hit ratio, invalidation and refill are outcomes",
		setupMixedRW},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaled divides a full-size count by the smoke scale, never below min.
func scaled(n, scale, min int) int {
	if n /= scale; n < min {
		return min
	}
	return n
}

// word returns a pronounceable token from the generator, so keys look
// like queries rather than counters.
func word(r *rand.Rand) string {
	const syl = "kasotenirumahopelidavu"
	n := 2 + r.Intn(3)
	b := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		j := 2 * r.Intn(len(syl)/2)
		b = append(b, syl[j], syl[j+1])
	}
	return string(b)
}

// hotSeqLen is the length of a client's pre-drawn access sequence over
// a hot set; clients cycle through it.
const hotSeqLen = 4096

// hotSequences draws each client's uniform access sequence over hot keys.
func hotSequences(rng *rand.Rand, clients, hot int) [][]uint8 {
	seq := make([][]uint8, clients)
	for c := range seq {
		seq[c] = make([]uint8, hotSeqLen)
		for i := range seq[c] {
			seq[c][i] = uint8(rng.Intn(hot))
		}
	}
	return seq
}

func searchParams(q string, start int) []soap.Param {
	return googleapi.SearchParams("bench-key", q, start, 10, false, "", false, "")
}

// hashSink is the byte-relaying consumer's destination: it hashes what
// a proxy would forward, so the replayed envelope can be compared with
// the origin's.
type hashSink struct{ h maphash.Hash }

func (s *hashSink) Write(p []byte) (int, error) { return s.h.Write(p) }

var sinkSeed = maphash.MakeSeed()

func (s *hashSink) reset() { s.h.SetSeed(sinkSeed) }

func hashOf(b []byte) uint64 { return maphash.Bytes(sinkSeed, b) }

// setupL1 builds the 100%-L1-hit workloads: a hot set filled once, then
// read uniformly by every client. The object consumer checks that the
// result echoes its query. The stream consumer relays bytes: it replays
// Context.Stream() into a hashing sink and compares the hash with the
// origin's envelope.
//
// A hot entry keeps the representation it was filled in for the whole
// run, so how the fill is decided is the workload:
//
//   - l1_obj lets the adaptive selector decide, but not cold: a cold
//     selector picks from one timing sample per candidate, and one run
//     in six then measures reflection copy instead of clone. It first
//     sees 256 throwaway fills of the same operation (32 probe rounds
//     at the default one in eight), the L1 is emptied, and the hot set
//     is filled under the published choice.
//   - l1_stream puts doGoogleSearch under the static Section 6
//     classifier ("auto", a per-operation policy override), which gives
//     byte-relaying consumers raw replay. Under the adaptive selector
//     the streamed path is a coin toss between raw and xmltmpl — it
//     times Load, which for both is a type assertion, not the replay,
//     where they differ by 450 ns — and the row is bimodal run to run.
func setupL1(p params, stream bool) (*instance, error) {
	e, err := newEnv(p.tr, false)
	if err != nil {
		return nil, err
	}
	in := &instance{env: e, clients: p.clients, warm: 50000 / p.scale}
	if err := e.withDaemon(); err != nil {
		return in, err
	}
	st, err := e.addStack(stackConfig{acceptStream: stream, staticSearchRep: stream, conns: p.clients})
	if err != nil {
		return in, err
	}

	rng := rand.New(rand.NewSource(p.seed))
	for t := scaled(256, p.scale, 64); t > 0 && !stream; t-- {
		q := fmt.Sprintf("%s %s t%d", word(rng), word(rng), t)
		if _, err := st.search.Invoke(e.ctx, searchParams(q, 0)...); err != nil {
			return in, fmt.Errorf("train %q: %w", q, err)
		}
	}
	st.cache.Clear()

	hot := scaled(64, p.scale, 4)
	queries := make([]string, hot)
	plist := make([][]soap.Param, hot)
	want := make([]uint64, hot)
	for k := range queries {
		queries[k] = fmt.Sprintf("%s %s %d", word(rng), word(rng), k)
		plist[k] = searchParams(queries[k], 0)
		ictx, err := st.search.InvokeContext(e.ctx, plist[k]...)
		if err != nil {
			return in, fmt.Errorf("fill %q: %w", queries[k], err)
		}
		if ictx.CacheHit {
			return in, fmt.Errorf("fill %q: served from cache, want an origin miss", queries[k])
		}
		want[k] = hashOf(ictx.ResponseXML)
	}
	seq := hotSequences(rng, p.clients, hot)
	sinks := make([]hashSink, p.clients)

	in.op = func(ctx context.Context, c, i int) bool {
		k := seq[c][i&(hotSeqLen-1)]
		ictx, err := st.search.InvokeContext(ctx, plist[k]...)
		if err != nil || !ictx.CacheHit {
			return false
		}
		if !stream {
			r, ok := ictx.Result.(*googleapi.GoogleSearchResult)
			return ok && r.SearchQuery == queries[k]
		}
		wt, ok := ictx.Stream()
		if !ok {
			return false
		}
		sink := &sinks[c]
		sink.reset()
		_, err = wt.WriteTo(sink)
		return err == nil && sink.h.Sum64() == want[k]
	}
	in.wrong = func(d counts, ops int64) int64 {
		return abs64(d.core.Hits-ops) + d.core.TierHits + d.originCalls
	}
	return in, nil
}

// setupL2Shared seeds the daemon through a second process, then reads
// through a process whose L1 is far smaller than the key set. Each
// client scans its own residue class cyclically, so no key returns
// before many times the L1's capacity has passed through it: every read is an L1
// miss served by the daemon.
func setupL2Shared(p params) (*instance, error) {
	e, err := newEnv(p.tr, false)
	if err != nil {
		return nil, err
	}
	nkeys := scaled(32768, p.scale, 2048)
	in := &instance{env: e, clients: p.clients, warm: 4096 / p.scale}
	if err := e.withDaemon(); err != nil {
		return in, err
	}
	l1 := scaled(1024, p.scale, 64)
	seeder, err := e.addStack(stackConfig{l1MaxEntries: l1, conns: p.clients})
	if err != nil {
		return in, err
	}
	reader, err := e.addStack(stackConfig{l1MaxEntries: l1, conns: p.clients})
	if err != nil {
		return in, err
	}

	rng := rand.New(rand.NewSource(p.seed))
	values := make([]string, nkeys)
	plist := make([][]soap.Param, nkeys)
	for k := range plist {
		key := fmt.Sprintf("%s-%d", word(rng), k)
		values[k] = "v:" + key
		e.origin.items.Put(key, values[k])
		plist[k] = googleapi.GetItemParams(key)
	}
	// The seeder process reads every key once: origin miss, L1 fill,
	// write-through to the daemon.
	errs := make(chan error, p.clients)
	for c := 0; c < p.clients; c++ {
		go func(c int) {
			for k := c; k < nkeys; k += p.clients {
				if _, err := seeder.getItem.Invoke(e.ctx, plist[k]...); err != nil {
					errs <- fmt.Errorf("seed key %d: %w", k, err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < p.clients; c++ {
		if err := <-errs; err != nil {
			return in, err
		}
	}
	if got := e.daemon.cache.TierStats().Entries; got != nkeys {
		return in, fmt.Errorf("daemon holds %d entries after seeding, want %d", got, nkeys)
	}

	per := nkeys / p.clients
	in.op = func(ctx context.Context, c, i int) bool {
		k := (i%per)*p.clients + c
		ictx, err := reader.getItem.InvokeContext(ctx, plist[k]...)
		return err == nil && ictx.CacheHit && ictx.Result == values[k]
	}
	// Only the reader's counters move during a phase; the seeder is idle.
	in.wrong = func(d counts, ops int64) int64 {
		return abs64(d.core.TierHits-ops) + d.core.Hits + d.originCalls + d.core.TierErrors
	}
	return in, nil
}

// setupServerHit drives the server-side response cache with a client
// that has no cache at all: pre-encoded envelopes over plain net/http,
// body drained and compared with the first (miss) response.
func setupServerHit(p params) (*instance, error) {
	e, err := newEnv(p.tr, true)
	if err != nil {
		return nil, err
	}
	in := &instance{env: e, clients: p.clients, warm: 2000 / p.scale}
	_, codec, err := newCodec()
	if err != nil {
		return in, err
	}
	httpTr := &http.Transport{MaxIdleConnsPerHost: p.clients}
	e.closers = append(e.closers, func() error { httpTr.CloseIdleConnections(); return nil })
	hc := &http.Client{Transport: httpTr}

	bufs := make([]bytes.Buffer, p.clients)
	post := func(ctx context.Context, c int, body []byte) ([]byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.origin.url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "text/xml; charset=utf-8")
		req.Header.Set("SOAPAction", `"`+soapAction+`"`)
		ct := clientTraceOf(ctx)
		var id uint32
		var start int64
		if ct != nil {
			id, start = ct.begin()
			req.Header.Set(spanHeader, spanHeaderValue(id, ct))
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		buf := &bufs[c]
		buf.Reset()
		_, err = io.Copy(buf, resp.Body)
		resp.Body.Close()
		if ct != nil {
			ct.end(spTransport, id, start, 0)
		}
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		return buf.Bytes(), nil
	}

	rng := rand.New(rand.NewSource(p.seed))
	hot := scaled(64, p.scale, 4)
	envelopes := make([][]byte, hot)
	want := make([]uint64, hot)
	wantLen := make([]int, hot)
	for k := range envelopes {
		q := fmt.Sprintf("%s %s %d", word(rng), word(rng), k)
		envelopes[k], err = codec.EncodeRequest(googleapi.Namespace, googleapi.OpGoogleSearch, searchParams(q, 0))
		if err != nil {
			return in, err
		}
		body, err := post(e.ctx, 0, envelopes[k])
		if err != nil {
			return in, fmt.Errorf("fill envelope %d: %w", k, err)
		}
		want[k], wantLen[k] = hashOf(body), len(body)
	}
	seq := hotSequences(rng, p.clients, hot)
	in.op = func(ctx context.Context, c, i int) bool {
		k := seq[c][i&(hotSeqLen-1)]
		body, err := post(ctx, c, envelopes[k])
		return err == nil && len(body) == wantLen[k] && hashOf(body) == want[k]
	}
	in.wrong = func(d counts, ops int64) int64 {
		return abs64(d.srvHits-ops) + d.srvMisses
	}
	return in, nil
}

// setupOriginMiss never repeats a request: each client walks its own
// pool of queries, and every lap through the pool moves the `start`
// parameter on, so (q, start) is new every time without growing the
// pre-generated input with the run length.
func setupOriginMiss(p params) (*instance, error) {
	e, err := newEnv(p.tr, false)
	if err != nil {
		return nil, err
	}
	in := &instance{env: e, clients: p.clients, warm: 2000 / p.scale}
	if err := e.withDaemon(); err != nil {
		return in, err
	}
	st, err := e.addStack(stackConfig{l1MaxEntries: 1024, conns: p.clients})
	if err != nil {
		return in, err
	}

	rng := rand.New(rand.NewSource(p.seed))
	pool := scaled(4096, p.scale, 256)
	const maxLaps = 1 << 16
	// Parameters are boxed once here so that the timed loop allocates
	// nothing of its own.
	starts := make([]any, maxLaps)
	for i := range starts {
		starts[i] = i
	}
	queries := make([][]string, p.clients)
	boxed := make([][]any, p.clients)
	plist := make([][]soap.Param, p.clients)
	for c := range queries {
		queries[c] = make([]string, pool)
		boxed[c] = make([]any, pool)
		for k := range queries[c] {
			queries[c][k] = fmt.Sprintf("%s %s c%d-%d", word(rng), word(rng), c, k)
			boxed[c][k] = queries[c][k]
		}
		plist[c] = searchParams("", 0)
	}
	in.op = func(ctx context.Context, c, i int) bool {
		k, lap := i%pool, (i/pool)%maxLaps
		ps := plist[c]
		ps[1].Value, ps[2].Value = boxed[c][k], starts[lap]
		ictx, err := st.search.InvokeContext(ctx, ps...)
		if err != nil || ictx.CacheHit {
			return false
		}
		r, ok := ictx.Result.(*googleapi.GoogleSearchResult)
		return ok && r.SearchQuery == queries[c][k] && r.StartIndex == lap+1
	}
	in.wrong = func(d counts, ops int64) int64 {
		return abs64(d.originCalls-ops) + d.core.Hits + d.core.TierHits + d.core.TierErrors
	}
	return in, nil
}

// setupMixedRW runs two client processes, A and B, against one origin
// and one daemon. Each draws keys from Zipf(1.1) over 8192 items; 5% of
// operations are writes, A writing only even keys and B only odd ones,
// so every key has one writer and its versions are monotone.
//
// Oracle. The writer publishes (version, commit time) for the key after
// doPutItem returns. A reader samples that floor before it issues the
// read; a read returning an older version is stale. What the stack
// promises (DESIGN.md §5f, §5h) is: never stale for the writing
// process itself, and never stale in another process once that process
// has contacted the daemon after the write committed — until then its
// L1 may still serve the old entry. So a stale read fails the operation
// when the reader is the key's writer, or when the reader is known to
// have contacted the daemon (an own write, or a read that went to the
// origin) after the commit; any other stale read is within contract
// and is counted as a lag read (invalidate.xproc_lag_reads_per_op).
func setupMixedRW(p params) (*instance, error) {
	e, err := newEnv(p.tr, false)
	if err != nil {
		return nil, err
	}
	const procs = 2
	in := &instance{env: e, clients: procs, warm: 3000 / p.scale, lagReads: new(atomic.Int64)}
	if err := e.withDaemon(); err != nil {
		return in, err
	}
	nkeys := scaled(8192, p.scale, 512)
	keys := make([]any, nkeys)
	for k := range keys {
		key := "item-" + strconv.Itoa(k)
		keys[k] = key
		e.origin.items.Put(key, "0")
	}

	type proc struct {
		st      *stack
		getP    []soap.Param
		putP    []soap.Param
		seq     []uint32 // key index, top bit set for a write
		version []uint32 // next version per own key
		// lastContact is the start time of this process's latest
		// operation known to have reached the daemon.
		lastContact int64
	}
	const seqLen, writeBit = 1 << 16, 1 << 31
	ps := make([]*proc, procs)
	for c := range ps {
		cfg := stackConfig{l1MaxEntries: scaled(2048, p.scale, 128), conns: 1}
		if p.tr != nil {
			cfg.bumpTrace = p.traces[c]
		}
		st, err := e.addStack(cfg)
		if err != nil {
			return in, err
		}
		rng := rand.New(rand.NewSource(p.seed + int64(c)*7919))
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(nkeys-1))
		pr := &proc{
			st:      st,
			getP:    googleapi.GetItemParams(""),
			putP:    googleapi.PutItemParams("", ""),
			seq:     make([]uint32, seqLen),
			version: make([]uint32, nkeys),
		}
		for i := range pr.seq {
			k := uint32(zipf.Uint64())
			if rng.Intn(100) < 5 {
				k = k&^1 | uint32(c) | writeBit // own parity
			}
			pr.seq[i] = k
		}
		ps[c] = pr
	}
	// Every epoch push is answered with the daemon's whole epoch table,
	// so a write costs in proportion to the keyspaces ever bumped, and
	// on a fresh daemon that number grows all through the run: slices
	// get slower one after the other and no two runs stop at the same
	// size. One bump of every item's keyspace puts the table at its
	// final size before the first operation, as on a daemon that has
	// been up for a while.
	spaces := make([]string, nkeys)
	for k := range spaces {
		spaces[k] = googleapi.ItemKeyspacePrefix + keys[k].(string)
	}
	if err := ps[0].st.remote.BumpEpoch(e.ctx, spaces); err != nil {
		return in, fmt.Errorf("pre-size the epoch table: %w", err)
	}
	// floor[k] packs the committed version (low 24 bits) with the commit
	// time in ns>>10 (high 40 bits), written only by the key's writer.
	floor := make([]atomic.Uint64, nkeys)

	in.op = func(ctx context.Context, c, i int) bool {
		pr := ps[c]
		s := pr.seq[i&(seqLen-1)]
		k := int(s &^ writeBit)
		if s&writeBit != 0 {
			start := nanos()
			pr.version[k]++
			v := pr.version[k]
			pr.putP[0].Value, pr.putP[1].Value = keys[k], strconv.FormatUint(uint64(v), 10)
			if _, err := pr.st.putItem.Invoke(ctx, pr.putP...); err != nil {
				return false
			}
			floor[k].Store(uint64(nanos())>>10<<24 | uint64(v&(1<<24-1)))
			pr.lastContact = start
			return true
		}
		f := floor[k].Load()
		start := nanos()
		pr.getP[0].Value = keys[k]
		ictx, err := pr.st.getItem.InvokeContext(ctx, pr.getP...)
		if err != nil {
			return false
		}
		str, ok := ictx.Result.(string)
		if !ok {
			return false
		}
		got, err := strconv.ParseUint(str, 10, 32)
		if err != nil {
			return false
		}
		if !ictx.CacheHit {
			pr.lastContact = start
		}
		if got&(1<<24-1) >= f&(1<<24-1) {
			return true
		}
		committed := int64(f>>24) << 10
		if k&1 == c || pr.lastContact > committed+1<<10 {
			return false
		}
		in.lagReads.Add(1)
		return true
	}
	in.wrong = func(d counts, ops int64) int64 { return d.core.TierErrors }
	return in, nil
}
