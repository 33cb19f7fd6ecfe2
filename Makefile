# Single entry point shared by CI and local runs.

# lint's unreached-package check uses bash process substitution.
SHELL    := bash
GO       ?= go
DATE     := $(shell date -u +%F)
BENCHOUT ?= BENCH_$(DATE).json

.PHONY: build test race bench bench-json bench-scale3 bench-diff profile lint serve load-test smoke-service smoke-cluster smoke-membership smoke-chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short-mode benchmark smoke run: compiles and executes every benchmark
# once so the parallel paths are exercised without burning CI minutes.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Full benchmark grid; writes the machine-readable report.
bench-json:
	$(GO) run ./cmd/mgbench -out $(BENCHOUT)

# Paper-regime grid: adds the >=5M-nonzero huge tier (slow; run on a
# multi-core box). Same schema, so bench-diff gates it like any report.
bench-scale3:
	$(GO) run ./cmd/mgbench -scale 3 -out BENCH_$(DATE)-scale3.json

# Profile the quick benchmark grid: writes bench-cpu.pprof,
# bench-mem.pprof, bench-mutex.pprof, and bench-block.pprof next to the
# JSON report, so every perf PR can ship pprof evidence
# (`go tool pprof -top bench-cpu.pprof`); the mutex/block profiles make
# worker-pool contention in the parallel refinement layers measurable.
profile:
	$(GO) run ./cmd/mgbench -quick -out BENCH_profile.json \
		-cpuprofile bench-cpu.pprof -memprofile bench-mem.pprof \
		-mutexprofile bench-mutex.pprof -blockprofile bench-block.pprof

# Compare two bench reports per grid point; exits nonzero when any
# common point regresses communication volume by more than 5%.
#   make bench-diff OLD=BENCH_old.json NEW=BENCH_new.json
bench-diff:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make bench-diff OLD=a.json NEW=b.json"; exit 2; }
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

# perfbench/ is its own module, so the root ./... patterns skip it;
# vet and test it explicitly so internal-API changes cannot break the
# benchmark unnoticed. Every internal package must be reached from the
# root package, a command, or an example: one only its own tests import
# is dead code.
lint:
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	@unreached=$$(comm -23 <($(GO) list ./internal/... | sort) \
		<($(GO) list -deps . ./cmd/... ./examples/... | grep '^mediumgrain/internal/' | sort)); \
	if [ -n "$$unreached" ]; then \
		echo "internal packages nothing outside their tests imports:"; echo "$$unreached"; exit 1; fi
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Run the partitioning-as-a-service daemon with persistence under ./mgserve-data.
serve:
	$(GO) run ./cmd/mgserve -addr :8080 -data mgserve-data

# Closed-loop load test against a locally running daemon (make serve first).
load-test:
	$(GO) run ./cmd/mgload -addr http://127.0.0.1:8080 -clients 32 -requests 10 -verify

# End-to-end service smoke: boot mgserve, curl a job through the API,
# require a cache hit on resubmission, mgload burst with offline
# verification, SIGTERM drain. Same script CI runs.
smoke-service:
	./scripts/service_smoke.sh

# End-to-end cluster smoke: two shards + a stateless router, routed
# jobs, peer fetch, multi-target mgload, merged stats, and a lossless
# shard SIGTERM under live traffic. Same script CI runs.
smoke-cluster:
	./scripts/cluster_smoke.sh

# End-to-end live-membership smoke: join a 4th shard into a running
# 3-shard cluster under live mgload (bounded rehydration), then SIGTERM
# it into a planned leave (announce, drain, handoff) — zero client
# errors across both epoch changes. Same script CI runs.
smoke-membership:
	./scripts/membership_smoke.sh

# Chaos smoke: three shards under deterministic fault injection (503
# shedding + latency), one SIGKILLed and restarted mid-run — zero
# surviving client errors, breaker open→close visible in router /stats,
# and degraded-mode serving exercised. Same script CI runs.
smoke-chaos:
	./scripts/chaos_smoke.sh
