GO ?= go

.PHONY: check build vet test race bench bench-json golden chaos chaos-scale chaos-churn soak lint castbench-smoke fuzz examples

# check is the CI entry point: vet, build, full test suite, bench smoke run.
check: vet build test bench

# lint is the repo's static-analysis gate: a gofmt check, go vet, and the
# in-tree analyzer suite (tools/morpheuslint — wallclock, mapiter,
# borrowedbuf, goactor; see DESIGN.md "Static analysis") over both wire
# planes. The tree must be lint-clean: every legitimate wall-only site
# carries a justified //lint:<analyzer>-ok directive, and the linter
# rejects empty, unknown, and unused directives.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -tags morpheus_portable ./...
	$(GO) run ./tools/morpheuslint ./...
	$(GO) run ./tools/morpheuslint -tags morpheus_portable ./...

# castbench-smoke runs the cast benchmark's own checks. castbench is a
# nested module (castbench/go.mod), so `go test ./...` and `make lint` at
# the root never descend into it. The target runs its unit tests, lints
# it, and runs every workload BENCHMARK.json gates for 2 s with tracing
# on; castbench exits non-zero when its delivery checker finds a lost,
# duplicated, reordered or corrupted cast.
CASTBENCH_WORKLOADS ?= flood-udp pingpong-udp
castbench-smoke:
	cd castbench && $(GO) test ./...
	$(GO) run ./tools/morpheuslint -dir castbench ./...
	@for w in $(CASTBENCH_WORKLOADS); do \
		echo "castbench-smoke: $$w"; \
		bash castbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 1 > /dev/null || exit 1; \
	done

# fuzz runs each native fuzz target over a network-facing decoder for a
# fixed short budget: transport frames through the event-kind registry,
# udpnet frame bodies, the udpnet v2 container walk, and the appiaxml
# configuration documents a coordinator ships to its members. Each target
# checks that decoding never panics and that whatever decodes re-encodes to
# the same bytes (appiaxml: re-parses to an equal document). A crasher is
# written under the package's testdata/fuzz/ and then replays as a
# regular test case in `go test`.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netio/udpnet -run '^$$' -fuzz '^FuzzParseBody$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netio/udpnet -run '^$$' -fuzz '^FuzzContainer$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/appia/appiaxml -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)

build:
	$(GO) build ./...

# examples builds each vnet example and cmd/morpheus-chat, runs it twice,
# and fails on a non-zero exit or on any stdout difference between the two
# runs: the programs simulate on the virtual clock at fixed seeds, so equal
# runs must print equal output. examples/live runs over real UDP sockets
# and is covered by the soak target instead.
EXAMPLES ?= ./examples/quickstart ./examples/chat ./examples/energy ./examples/epidemic ./examples/adaptive-fec ./examples/xmlconfig ./cmd/morpheus-chat
examples:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for p in $(EXAMPLES); do \
		echo "examples: $$p"; \
		$(GO) build -o "$$tmp/prog" $$p || exit 1; \
		"$$tmp/prog" > "$$tmp/run1.txt" || exit 1; \
		"$$tmp/prog" > "$$tmp/run2.txt" || exit 1; \
		diff "$$tmp/run1.txt" "$$tmp/run2.txt" || { echo "examples: $$p printed different output on two runs"; exit 1; }; \
	done

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the suite under the race detector in short mode (socket-bound
# udpnet tests skip themselves under -short, keeping the job reliable),
# then repeats the scheduler's park/wake/close tests 20 times, since a lost
# wake-up or a double drain shows only under some interleavings.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=20 -run 'Idle|Pool|Stress|Scheduler' ./internal/appia

# golden replays every experiment family (figure3, E4 through E11, at
# reduced scale) three times each on the virtual clock and checks the
# counter-matrix hashes against the pins in
# internal/experiment/testdata/golden.json. Regenerate pins after an
# intentional behavior change with:
#   go test ./internal/experiment -run TestGoldenReplay -update-golden
golden:
	$(GO) test ./internal/experiment -run TestGoldenReplay -count=1 -v

# chaos sweeps 1000 seeded fault schedules (E12) on virtual time and checks
# the full invariant suite per run — ~50 s wall. A failing seed is a
# complete failure artifact; reproduce it with:
#   go run ./cmd/morpheus-bench -replay <seed>
chaos:
	$(GO) run ./cmd/morpheus-bench -run chaos -seeds 1000 -seed 1

# chaos-scale is the scheduler-pool population smoke: the same fault
# schedules while every node additionally hosts 1000 quiet groups on the
# shared worker pool. Invariants must hold exactly as without them, and
# crash-stops exercise pooled teardown at population scale.
chaos-scale:
	$(GO) run ./cmd/morpheus-bench -run chaos -seeds 50 -seed 2001 -groups 1000

# chaos-churn is the membership-lifecycle sweep (E12b): the same seeded
# fault schedules with two graceful-churn waves appended per seed — a fresh
# group bootstrapped without one member, that member folded in late via
# JoinVia state transfer, flooded, and departed gracefully mid-run (the
# survivors must drain their send windows within a stability round).
# Reproduce a failing seed with:
#   go run ./cmd/morpheus-bench -replay <seed> -churns 2
chaos-churn:
	$(GO) run ./cmd/morpheus-bench -run churn -seeds 300 -seed 1 -churns 2

# soak exercises the real-socket wire plane end to end: the live demo (UDP
# on localhost, batched coalescer + vectored syscalls on by default) runs
# repeatedly. Each round covers the full membership lifecycle across four
# OS processes — the bootstrap trio runs reliable multicast in two groups
# plus a live plain->mecho reconfiguration, a fourth process then joins the
# *running* group late through a seed member (-join-via semantics: state
# transfer, gap-free start at the frontier), and one member is SIGTERMed
# mid-run so its graceful leave must converge the survivors' views well
# under the failure-detection threshold. IP-multicast is not required (the
# demo is unicast on 127.0.0.1); rounds with `make soak SOAK_ROUNDS=20`.
SOAK_ROUNDS ?= 5
soak:
	@i=1; while [ $$i -le $(SOAK_ROUNDS) ]; do \
		echo "soak: round $$i/$(SOAK_ROUNDS)"; \
		$(GO) run ./examples/live || exit 1; \
		i=$$((i+1)); \
	done

# bench runs every benchmark once as a smoke test (catches bit-rot without
# paying for stable numbers).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-json runs the benchmarks for real and records them as JSON.
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1s ./... | tee /tmp/bench_out.txt
	$(GO) run ./tools/benchjson -after /tmp/bench_out.txt > BENCH_local.json
	@echo wrote BENCH_local.json
