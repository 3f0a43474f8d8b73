# Convenience targets for the landmarkdht reproduction.

GO ?= go

.PHONY: all build test test-short test-race golden-check chaos node-smoke durability-smoke repair-smoke vet lint bench bench-check layout loc experiments experiments-paper examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$'

# Project-specific determinism and concurrency-contract linters
# (cmd/lmlint) plus staticcheck when available. lmlint enforces the
# simulator's reproducibility contract (no global math/rand, no wall
# clock, no order-sensitive map iteration, no concurrency in
# engine-owned packages) and the live runtimes' concurrency contracts
# (no blocking on the protocol executor, no mutex held across a
# blocking call, no dropped errors on wire paths, no stale or
# unexplained suppressions), and deadexport keeps out of internal/ any
# declaration that only tests reference. The analyzer suite's own tests run first
# so a broken analyzer can't silently pass the module. Last, lmnode's
# dependency closure must not name encoding/gob: every frame netrt reads
# off a socket goes through a bounded, fuzzed decoder (netrt/proto.go);
# and chord's and core's must not name the simulator: they are written
# against runtime.Runtime alone. And no non-test file in internal/core
# calls AfterFunc: every core timer is a record on ScheduleArg (a query
# timer, a publish attempt), which holds what it needs and allocates no
# closure.
lint:
	$(GO) test ./internal/analysis/...
	$(GO) run ./cmd/lmlint ./...
	@if $(GO) list -deps ./cmd/lmnode | grep -qx encoding/gob; then \
		echo "cmd/lmnode depends on encoding/gob" >&2; exit 1; \
	fi
	@if $(GO) list -deps ./internal/chord ./internal/core | grep -Ex 'landmarkdht/internal/(sim|runtime/simrt)'; then \
		echo "internal/chord or internal/core depends on the simulator" >&2; exit 1; \
	fi
	@if grep -n 'AfterFunc(' $$(ls internal/core/*.go | grep -v '_test\.go$$'); then \
		echo "internal/core calls AfterFunc: arm a ScheduleArg record instead" >&2; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

# Skips the multi-second integration experiments.
test-short:
	$(GO) test -short ./...

# What CI runs: the race detector over the short suite.
test-race:
	$(GO) test -race -short ./...

# The small-scale report of every lmsim experiment — tables 1 and 2,
# figures 2 to 6, the ablations (rotation, naive, lbsweep, ksweep,
# mapping, pns), churn and the fault sweep (A9) — against the recorded
# ones (testdata/golden/<id>_small.json, one per harness.Experiments
# entry, ~60 s): a change to the store, the router, the overlay, its
# fault injection or the region streams that is meant to leave the
# protocol alone prints the same report — recall, hops, messages,
# migrations, load, drops and retransmissions, every float to the bit.
# The table beside each report (<id>_small.txt) is what lmsim prints
# from it, which TestGoldenTables holds. A change that means to move
# them regenerates both files with the same commands and says why.
golden-check:
	@for f in testdata/golden/*_small.json; do \
		id=$$(basename $$f _small.json); \
		$(GO) run ./cmd/lmsim -exp $$id -scale small -json | diff $$f - || exit 1; \
	done

# The chaos soak on the simulator (TestChaosSoak, ~20 s): 200 seeds of
# overlapping queries in simulated time under message loss, duplication,
# crash/join churn and, on every fourth seed, an admission cap. Every
# Complete result must equal brute force and every incomplete one must
# be an honestly flagged subset. A failing seed replays alone:
# go test -run 'TestChaosSoak/seed=17$' . — no -race: the simulator is
# one goroutine.
chaos:
	$(GO) test -count=1 -run TestChaosSoak .

# The multi-process deployment smoke: build cmd/lmnode, boot a 4-process
# ring over localhost TCP, run brute-force-verified queries through the
# TCP client protocol while members are SIGKILLed and restarted, and
# require every member to serve complete exact answers again afterwards.
# The -race build extends to the child lmnode processes.
node-smoke:
	$(GO) test -race -count=1 -run TestTwoProcessSmoke ./cmd/lmnode
	$(GO) run -race ./cmd/lmchaos -procs 4 -objects 1024 -dim 4 -queries 120 -clients 6 -churn 3

# Durable-state smoke (DESIGN.md §14): the WAL/walstore crash-recovery
# unit tests, then the multi-process soak in durable mode — each lmnode
# gets a data dir, the soak publishes fresh vectors and deletes a boot
# id before every SIGKILL, members are restarted on the same address,
# and after the last restart every acknowledged publish must come back
# and every acknowledged delete must stay gone (the corpus is rebuilt on
# every boot; the mutations are what the directory is for), on top of
# the usual brute-force verification.
durability-smoke:
	$(GO) test -race -count=1 ./internal/wal
	$(GO) test -race -count=1 -run 'WAL|Durable' ./internal/core ./internal/runtime/netrt .
	$(GO) run -race ./cmd/lmchaos -procs 4 -objects 1024 -dim 4 -queries 120 -clients 6 -churn 3 -durable

# Replication and anti-entropy smoke (DESIGN.md §15): the replica,
# failure-detector and mutation tests under the race detector, then the
# multi-process soak with -replicas 1 and the kill-without-restart
# phase — publishes land in one member's arc, it is SIGKILLed and stays
# dead, and every query must come back Complete and equal to brute force
# plus the acknowledged publishes, answered from its replica copy (its
# mutations; the corpus every member builds itself). A healthy ring keeps
# copies current by fan-out and streams only to repair divergence, which
# the tests pin (TestMutationFreeRingSyncsWithoutStream,
# TestRestartedReplicaInstallsOneStream). The failover exactness tests,
# the hand-off test and the hostile query frame run twenty times over
# (the same list as CI's step): ring positions come from ephemeral ports,
# and what the first two caught once (a former replica answering from a
# copy nobody updates any more) failed one run in twelve, where a rerun
# would have hidden it.
repair-smoke:
	$(GO) test -race -count=1 -run 'Replica|AntiEntropy|FailureDetector|Publish|ClientMut|HostileRep|SyncsWithoutStream' ./internal/runtime/netrt
	$(GO) test -race -count=20 -run 'TestGroupedExactness|TestFormerReplicaDoesNotServeStaleCopy|TestMutationsFollowTheirKeyOnJoin|TestDownOwnerLosesOnlyItsRegions|TestHostileQueryFrameDropsLink' ./internal/runtime/netrt
	$(GO) run -race ./cmd/lmchaos -procs 4 -objects 1024 -dim 4 -queries 120 -clients 6 -churn 3 -replicas 1 -kill-dead

# One iteration of every kernel benchmark under internal/*: catches a
# benchmark that crashes or asserts, not a timing.
bench:
	$(GO) test -bench . -benchmem -benchtime 1x -run '^$$' ./...

# bench/ is its own module (landmarkdht/bench, replace => ../), so the
# root build, vet, test and lint never see it. This compiles, vets,
# self-tests and lints it against the current tree, so a signature it
# uses (lm.Options, lm.Traffic, wire.*, core.*) cannot move under its
# feet unnoticed. The benchmark itself is `bash bench/run.sh`.
bench-check:
	cd bench && $(GO) vet . && $(GO) test . && $(GO) run landmarkdht/cmd/lmlint ./...

# Where the linker put the hot code of the two binaries bench/run.sh
# runs: each symbol's address (go tool nm -n) and its offset in a
# 64-byte line, "-" where a binary does not link it. A kernel's speed
# depends on that offset, and the harness scales every time by its
# calibration kernel's (main.kernelMs.func1), so a change that moves
# these compares its numbers with the parent's only after comparing
# this table on both sides. It builds both binaries as bench/run.sh
# does, into .bench_build/.
LAYOUT_SYMS = main.kernelMs.func1 query.boxMaskAVX512.abi0 query.box32MaskAVX512.abi0 \
	metric.l2RowsAVX512.abi0 'query.(*LeafBoxes).Walk' 'netrt.(*Node).answer.func2' \
	'query.(*Rows).Scan'

layout:
	@mkdir -p .bench_build
	cd bench && $(GO) build -o ../.bench_build/bench .
	$(GO) build -o .bench_build/lmnode landmarkdht/cmd/lmnode
	@set -f; for bin in bench lmnode; do \
		$(GO) tool nm -n .bench_build/$$bin > .bench_build/$$bin.nm || exit 1; \
		for sym in $(LAYOUT_SYMS); do \
			addr=$$(awk -v s="$$sym" '$$3 == s || substr($$3, length($$3) - length(s)) == "/" s { print $$1; exit }' .bench_build/$$bin.nm); \
			if [ -n "$$addr" ]; then \
				printf '%-7s %-30s 0x%s %2d\n' $$bin "$$sym" "$$addr" $$((0x$$addr % 64)); \
			else \
				printf '%-7s %-30s %-10s  -\n' $$bin "$$sym" -; \
			fi; \
		done; \
	done

# Code lines of the module's non-test Go files — blank lines and comment
# lines not counted — per package under internal/ and cmd/ and at the
# module root (testdata/ left out), then their total: the count a
# change that deletes code reports, before and after.
loc:
	@total=0; for d in . $$(find internal cmd -type d -not -path '*/testdata*' | sort); do \
		files=$$(ls $$d/*.go 2>/dev/null | grep -v '_test\.go$$'); \
		[ -n "$$files" ] || continue; \
		n=$$(awk '/^[ \t]*$$/ || /^[ \t]*\/\// { next } \
			block { block = !index($$0, "*/"); next } \
			/^[ \t]*\/\*/ { block = !index($$0, "*/"); next } \
			{ n++ } END { print n + 0 }' $$files); \
		printf '%7d %s\n' $$n $$d; total=$$((total + n)); \
	done; printf '%7d total\n' $$total

# Quick qualitative reproduction of every table/figure (~2 min).
experiments:
	$(GO) run ./cmd/lmsim -exp all -scale small

# Full §4 scale (slow; hours on a small machine).
experiments-paper:
	$(GO) run ./cmd/lmsim -exp all -scale paper

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/dnasearch
	$(GO) run ./examples/docsearch
	$(GO) run ./examples/multiindex
	$(GO) run ./examples/faulttolerance

clean:
	$(GO) clean ./...
