# Reproduction of "Efficient Web Services Response Caching by Selecting
# Optimal Data Representation" (ICDCS 2004). See README.md.

GO ?= go

.PHONY: all check build vet lint lint-fix depguard test race cover referee bench bench-diff bench-inval bench-cluster bench-all bench-smoke chaos cluster-smoke leftovers tables figures fuzz generate clean

all: build vet lint test

# The CI gate: everything must build, vet and wscachelint clean, and
# pass under the race detector (the resilience paths are
# concurrency-heavy).
check: depguard
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) run ./cmd/wscachelint ./...
	$(GO) test -race ./...

# The engine is the bottom of the cache stack and the daemon is the
# engine behind a protocol: neither may quietly re-grow the imports
# DESIGN.md §5j removed.
depguard:
	! $(GO) list -deps ./internal/engine | grep -E 'repro/internal/(client|rep|core|server|cluster)$$'
	! $(GO) list -deps ./cmd/wscached | grep -E 'repro/internal/(rep|client)$$'

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Domain-specific static analysis (internal/lint/checks). Suppress a
# finding with //lint:ignore <check> <reason> on or above the line.
lint:
	$(GO) run ./cmd/wscachelint ./...

# Apply the analyzers' suggested fixes in place (atomicmix atomic
# rewrites, epochgraph constant substitution, hotpath Sprintf folding),
# then print what remains for hand repair.
lint-fix:
	$(GO) run ./cmd/wscachelint -fix ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./internal/... ./...
	$(GO) tool cover -func=cover.out | tail -1

# The referee benchmark (benchmark/README.md): six serving-path
# workloads end to end and per layer; BENCHMARK.json holds the bounds.
# The bench-* targets below and their BENCH_*.json files are legacy.
referee:
	bash benchmark/run.sh

# Track the cache-core perf trajectory: hit-path microbenchmarks plus
# the portal concurrency sweep, archived as BENCH_core.json (ns/op,
# allocs/op, parallel throughput). Compare against the checked-in file
# before and after touching the hot path.
bench:
	{ $(GO) test -run NONE -bench 'BenchmarkHit' -benchmem ./internal/core && \
	  $(GO) test -run NONE -bench 'BenchmarkPortalConcurrency' -benchtime 1x ./; } \
	| $(GO) run ./cmd/benchjson -o BENCH_core.json \
	  -note "checked-in run: single-CPU container (GOMAXPROCS=1), so parallel scaling cannot manifest; pre-shard baseline on the same harness and host: HitSerial 342.4 ns/op 1 alloc/op, HitParallel/16 312.9 ns/op"
	@cat BENCH_core.json

# Track differential serialization and zero-copy replay (DESIGN.md
# §5i): a steady-state full-stack hit under the object baselines vs the
# raw-replay and template-splice representations, archived as
# BENCH_diff.json. The streaming rows deliver the serialized response
# to a writer and must still be the cheapest; TestDiffHitAllocs holds
# them at <= 2 allocs/op.
bench-diff:
	$(GO) test -run NONE -bench 'BenchmarkDiffHit' -benchtime 2s -benchmem ./ \
	| $(GO) run ./cmd/benchjson -o BENCH_diff.json \
	  -note "checked-in run: single-CPU container; steady-state full-stack hit, streaming rows replay the response into io.Discard on every call"
	@cat BENCH_diff.json

# Track the invalidation epoch check on the hit path: BenchmarkHitInval
# is BenchmarkHitSerial with two epoch stamps per entry, archived as
# BENCH_inval.json. TestInvalHitOverhead holds the delta under 5%.
bench-inval:
	$(GO) test -run NONE -bench 'BenchmarkHitSerial|BenchmarkHitInval' -benchmem ./internal/core \
	| $(GO) run ./cmd/benchjson -o BENCH_inval.json \
	  -note "checked-in run: single-CPU container; HitInval adds the per-hit epoch-stamp check (two atomic loads) over HitSerial"
	@cat BENCH_inval.json

# Track the tier hierarchy: the same doGetItem served from the
# process-local L1, from a shared wscached-style daemon over loopback
# TCP (L2 hit), and by the HTTP origin, archived as BENCH_cluster.json.
# The point of the shared tier is the middle row: an L2 hit must beat
# the origin round trip or promotion is pure overhead.
bench-cluster:
	$(GO) test -run NONE -bench 'BenchmarkCluster' -benchmem ./ \
	| $(GO) run ./cmd/benchjson -o BENCH_cluster.json \
	  -note "checked-in run: single-CPU container; L1 = in-process hit, L2 = daemon hit over loopback TCP, Origin = full SOAP round trip over loopback HTTP"
	@cat BENCH_cluster.json

# The invalidation chaos harness under the race detector: mixed
# read/write load, injected faults, lying 304 validator, sweep/Clear
# churn, zero-stale-after-write oracle. Target only the packages that
# carry the tests — a wildcard piped through grep to hide "no test
# files" noise would also swallow go test's failure status (the pipe's
# exit code is grep's, and make has no pipefail).
chaos:
	$(GO) test -race -run 'Chaos' -v .
	$(GO) test -race -run 'InvalidationConcurrentStress' -v ./internal/core

# Cross-process smoke over the real binaries (CI runs this target): boot
# the dummy backend and a wscached daemon, then point two wsclient
# processes at them. The second process starts with a cold L1, so its
# very first call saying hit=true proves the response crossed processes
# through the shared tier (DESIGN.md §5h). One shell, and the EXIT trap
# is installed before the two background starts, so both daemons are
# killed and reaped however the recipe ends — a failing wsclient
# included. /bin/sh may be dash, which skips the EXIT trap when a signal
# kills the shell (make forwards TERM to it), so INT, TERM and HUP are
# turned into a plain exit. The EXIT trap must reach its wait, or a
# daemon still shutting down is orphaned: it ignores further signals
# (make forwards a second TERM after a group signal) and tolerates a
# daemon the signal already killed (kill fails, and set -e is on).
# Last, the daemon's /debug/wscache snapshot must list its epoch-table
# reply counters (clusterd.table_delta, clusterd.table_full).
SMOKE_DIR ?= .smoke_bin
SMOKE_ARGS = -endpoint http://127.0.0.1:18080/ -l2 127.0.0.1:17070 doGoogleSearch key=ci q=smoke start=0 maxResults=10 filter=false restrict= safeSearch=false lr= ie= oe=
cluster-smoke:
	$(GO) build -o $(SMOKE_DIR)/ ./cmd/dummygoogle ./cmd/wscached ./cmd/wsclient
	set -e; DG=; WC=; \
	trap 'trap "" INT TERM HUP; kill $$DG $$WC 2>/dev/null || :; wait' EXIT; \
	trap 'exit 1' INT TERM HUP; \
	$(SMOKE_DIR)/dummygoogle -addr 127.0.0.1:18080 & DG=$$!; \
	$(SMOKE_DIR)/wscached -addr 127.0.0.1:17070 -obs-addr 127.0.0.1:17071 & WC=$$!; \
	sleep 1; \
	$(SMOKE_DIR)/wsclient $(SMOKE_ARGS); \
	$(SMOKE_DIR)/wsclient $(SMOKE_ARGS) > $(SMOKE_DIR)/second.out; \
	cat $(SMOKE_DIR)/second.out; \
	grep -q 'hit=true' $(SMOKE_DIR)/second.out; \
	curl -sf http://127.0.0.1:17071/debug/wscache > $(SMOKE_DIR)/daemon.json; \
	grep '"clusterd\.table_' $(SMOKE_DIR)/daemon.json; \
	test "$$(grep -c '"clusterd\.table_\(delta\|full\)"' $(SMOKE_DIR)/daemon.json)" = 2

# Fails, listing them, if any process this tree can start is still
# running or unreaped: every cmd/* and examples/* binary, the referee
# benchmark and go test binaries (scripts/leftovers.sh has the matching
# rules; TestLeftoversMatcher feeds it canned process lists). Run it
# last, after anything that backgrounds a daemon.
leftovers:
	@ps -eo pid=,comm= | sh scripts/leftovers.sh

# One-iteration CI smoke: proves the benchmarks and the JSON emitter
# still run; the numbers are meaningless at -benchtime 1x.
bench-smoke:
	{ $(GO) test -run NONE -bench 'BenchmarkHit' -benchtime 1x -benchmem ./internal/core && \
	  $(GO) test -run NONE -bench 'BenchmarkPortalConcurrency/users=4|BenchmarkDiffHit' -benchtime 1x ./; } \
	| $(GO) run ./cmd/benchjson

# Regenerate every table and figure of the paper's evaluation.
bench-all:
	$(GO) test -bench=. -benchmem ./...

tables:
	$(GO) run ./cmd/wscache-bench

figures:
	$(GO) run ./cmd/portalbench -figure 3
	$(GO) run ./cmd/portalbench -figure 4

# Brief fuzzing pass over the wire-facing surfaces.
fuzz:
	$(GO) test -fuzz FuzzScanner -fuzztime 30s ./internal/xmltext
	$(GO) test -fuzz FuzzEscapeRoundTrip -fuzztime 30s ./internal/xmltext
	$(GO) test -fuzz FuzzDecodeEnvelope -fuzztime 30s ./internal/soap
	$(GO) test -fuzz FuzzTemplateSplice -fuzztime 30s ./internal/sax

# Regenerate the checked-in WSDL compiler output.
generate:
	$(GO) run ./cmd/wsdlgen -pkg googlegen -o internal/googlegen/googlegen.go

clean:
	rm -f cover.out test_output.txt bench_output.txt
	rm -rf $(SMOKE_DIR)
