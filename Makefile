# Developer entry points. `make check` is the gate every PR must pass.

GO ?= go

.PHONY: check vet fmt build test lint lint-json race bench baseline resilience cover bench-guard stencil stress serve loadtest serve-smoke weakscale weakscale-smoke powercap perfbench

## check: gofmt + go vet + build + ompss-lint + full test suite (the tier-1 gate)
check: fmt vet build lint test

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## lint: the determinism/concurrency/dependence analyzers (DESIGN.md §9);
## any unsuppressed finding fails the gate
lint:
	$(GO) run ./cmd/ompss-lint ./...

## lint-json: the same seven passes as machine-readable records in lint.json
## (suppressed findings included — this is the CI lint-report artifact)
lint-json:
	$(GO) run ./cmd/ompss-lint -json ./... > lint.json || true
	@echo "wrote lint.json"

## race: race-detect the simulation kernel, the parallel harness, the
## concurrent runtime layers (core/gasnet/faults), and the serving layer
race:
	$(GO) test -race ./internal/sim/... ./internal/bench/... ./internal/core/... ./internal/gasnet/... ./internal/faults/... ./internal/serve/...

## resilience: the fault-plan test matrix plus the quick resilience grid
resilience:
	$(GO) test ./internal/faults/ ./internal/core/ -run 'Resilience|Fault'
	$(GO) test ./internal/gasnet/ -run 'Reliable|Ack|Attempts|Shutdown|Probe|InboundFilter'
	$(GO) run ./cmd/ompss-bench -experiment resilience -quick

## perfbench: vet and test the benchmark module (perfbench/, its own go.mod
## replacing this one) with the environment perfbench/run.sh builds it in,
## so a change to an internal API it imports fails here, not at benchmark
## time; the caches stay under .bench_build/
PERFBENCH_ENV = GOCACHE=$(CURDIR)/.bench_build/gocache GOMODCACHE=$(CURDIR)/.bench_build/gomod \
	GOTMPDIR=$(CURDIR)/.bench_build/tmp GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
perfbench:
	@mkdir -p .bench_build/gocache .bench_build/gomod .bench_build/tmp
	cd perfbench && $(PERFBENCH_ENV) $(GO) vet ./...
	cd perfbench && $(PERFBENCH_ENV) $(GO) test ./...

## bench: layer microbenchmarks (ns/op and allocs/op of the sim primitives
## and of the coherence cache's overlap sweep at 256 and 4096 lines)
bench:
	$(GO) test ./internal/sim/ -run xxx -bench BenchmarkEngine -benchmem
	$(GO) test ./internal/coherence/ -run xxx -bench BenchmarkCacheOverlappingLines -benchmem

## stress: full-size submission stress (10^6 tasks: tasks/sec of the graph,
## scheduler and directory hot path; -cpuprofile/-memprofile work here too)
stress:
	$(GO) run ./cmd/ompss-bench -experiment stress

## baseline: time `ompss-bench -experiment all -quick` into BENCH_harness.json
baseline:
	sh scripts/perf_baseline.sh

## bench-guard: rerun the quick suite and fail on wall-clock, armed-overhead
## or submission tasks/sec regression vs BENCH_harness.json (non-required CI
## job; wide tolerance)
bench-guard:
	sh scripts/bench_guard.sh

## serve: run the resident experiment service on :8080 (POST /v1/experiments;
## see EXPERIMENTS.md "Serving experiments")
serve:
	$(GO) run ./cmd/ompss-serve

## loadtest: the canonical serve load test — 1000 concurrent clients against
## a warm cache; fails below 99% hit rate (LOAD_CLIENTS/LOAD_REQUESTS/
## LOAD_DISTINCT tune it)
loadtest:
	sh scripts/load_test.sh

## serve-smoke: end-to-end smoke of the resident mode — boot, warm-hit
## burst, byte-identical bodies, graceful SIGTERM drain (the CI job)
serve-smoke:
	sh scripts/serve_smoke.sh

## weakscale: the full weak-scaling grid (8/64/256 nodes, centralized vs
## sharded managers; tasks/sec and directory-ops/sec in virtual time)
weakscale:
	$(GO) run ./cmd/ompss-bench -experiment weakscale

## weakscale-smoke: the required CI gate — quick weakscale grid plus the
## checksum verify points (Matmul at 8/32 nodes, 1 vs 4 shards); fails on
## any divergence between centralized and sharded results
weakscale-smoke:
	sh scripts/weakscale_smoke.sh

## powercap: the power-capped heterogeneous frontier at quick sizes — the
## CI smoke. Mixed GTX480+Tesla cluster, bf/default/affinity/heft at a
## descending cap ladder; the built-in verify row fails the run if a
## capped checksum diverges from uncapped or the recorded peak exceeds
## the cap
powercap:
	$(GO) run ./cmd/ompss-bench -experiment powercap -quick

## stencil: run the heat example (overlapping halo regions) on a simulated
## 2-node GPU cluster and verify the checksum against the serial version
stencil:
	$(GO) run ./examples/heat -nodes 2 -verify

## cover: full test suite with a coverage profile, per-function summary,
## and a browsable HTML report (coverage.html; CI uploads it as artifact)
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1
	$(GO) tool cover -html=coverage.out -o coverage.html
	@echo "wrote coverage.html"
