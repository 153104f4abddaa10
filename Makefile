# Reproduction of "Efficient Web Services Response Caching by Selecting
# Optimal Data Representation" (ICDCS 2004). See README.md.

GO ?= go

.PHONY: all check build vet fmt lint depguard test race cover referee bench-smoke chaos cluster-smoke leftovers tables figures fuzz generate clean

all: build vet lint test

# The CI gate: every Go file gofmt-clean, everything must build, vet and
# wscachelint clean, and pass under the race detector (the resilience
# paths are concurrency-heavy).
check: depguard fmt
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

# Fails, listing them, if any Go file (lint fixtures included) is not
# gofmt-formatted.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

# Domain-specific static analysis (internal/lint/checks). Suppress a
# finding with //lint:ignore <check> <reason> on or above the line.
lint:
	$(GO) run ./cmd/wscachelint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./internal/... ./...
	$(GO) tool cover -func=cover.out | tail -1

# The referee benchmark (benchmark/README.md): six serving-path
# workloads end to end and per layer; BENCHMARK.json holds the bounds.
referee:
	bash benchmark/run.sh

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
# through the shared tier (DESIGN.md §5h). It calls twice with -obs: its
# snapshot must count one core.tier_hits and one core.hits, and no
# representation counter may name binary serialization — the wire form
# the first process wrote — because a promotion fills L1 in L1's own
# representation (copy by clone for the search result). One shell, and the EXIT trap
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
	$(SMOKE_DIR)/wsclient -repeat 2 -obs $(SMOKE_ARGS) > $(SMOKE_DIR)/second.out; \
	cat $(SMOKE_DIR)/second.out; \
	test "$$(grep -c 'hit=true' $(SMOKE_DIR)/second.out)" = 2; \
	test "$$(grep -cE '"core\.(tier_hits|hits)": 1,?$$' $(SMOKE_DIR)/second.out)" = 2; \
	if sed -n '/^  "representations": {/,/^  }/p' $(SMOKE_DIR)/second.out | grep '"Binary serialization"'; then \
		echo 'the promoted entry is still served as binser'; exit 1; fi; \
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

# One-iteration CI smoke: runs every benchmark in the tree once, so
# they keep compiling and running; the numbers are meaningless at
# -benchtime 1x. The measurements are `make tables`, `make figures`
# and `make referee`.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

tables:
	$(GO) run ./cmd/wscache-bench

figures:
	$(GO) run ./cmd/portalbench -figure 3
	$(GO) run ./cmd/portalbench -figure 4

# Brief fuzzing pass over the wire-facing surfaces. -fuzz takes a
# regexp that must match exactly one target, hence the anchors. The
# soap targets and FuzzTemplateStore cap the minimizer: shrinking one
# 5 KB envelope at the default 60 s left a 20 s run at 0 execs/s for
# most of its time.
fuzz:
	$(GO) test -run NONE -fuzz '^FuzzScanner$$' -fuzztime 30s ./internal/xmltext
	$(GO) test -run NONE -fuzz '^FuzzScannerVsStdlib$$' -fuzztime 30s ./internal/xmltext
	$(GO) test -run NONE -fuzz '^FuzzEscapeRoundTrip$$' -fuzztime 30s ./internal/xmltext
	$(GO) test -run NONE -fuzz '^FuzzDecodeEnvelope$$' -fuzztime 30s -fuzzminimizetime 50x ./internal/soap
	$(GO) test -run NONE -fuzz '^FuzzMemoDecode$$' -fuzztime 30s -fuzzminimizetime 50x ./internal/soap
	$(GO) test -run NONE -fuzz '^FuzzTemplateSplice$$' -fuzztime 30s ./internal/sax
	$(GO) test -run NONE -fuzz '^FuzzWriterVsStdlib$$' -fuzztime 30s ./internal/sax
	$(GO) test -run NONE -fuzz '^FuzzUnmarshal$$' -fuzztime 30s ./internal/binser
	$(GO) test -run NONE -fuzz '^FuzzFrameRoundTrip$$' -fuzztime 30s ./internal/cluster
	$(GO) test -run NONE -fuzz '^FuzzDecodeWire$$' -fuzztime 30s ./internal/rep
	$(GO) test -run NONE -fuzz '^FuzzTemplateStore$$' -fuzztime 30s -fuzzminimizetime 50x ./internal/rep

# Regenerate the checked-in WSDL compiler output.
generate:
	$(GO) run ./cmd/wsdlgen -pkg googlegen -o internal/googlegen/googlegen.go

clean:
	rm -f cover.out test_output.txt
	rm -rf $(SMOKE_DIR)
