# Development targets. `make verify` is the gate every change must
# pass: it includes the race detector because the analysis engine's
# corpus worker pool must be race-clean.

GO ?= go

.PHONY: verify build vet test race bench benchsmoke profile figures solverbench incrementalbench clockedbench serversmoke fuzz fuzz-smoke clocked-smoke gofrontbench gofront-smoke benchcheck

verify: build vet race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench is the real measurement run (count 3 so best-of can reject
# noise); benchsmoke just checks every benchmark still executes.
bench:
	$(GO) test -run xxx -bench . -benchmem -count 3 ./...
	$(GO) run ./cmd/mhpbench -figure solver -benchjson BENCH_solver.json

benchsmoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# profile writes CPU and heap profiles for the phased-vs-topo solver
# ablation; inspect with `go tool pprof solver.cpu.pprof`.
profile:
	$(GO) test -run xxx -bench 'BenchmarkSolverPhased|BenchmarkSolverTopo' -benchmem \
		-cpuprofile solver.cpu.pprof -memprofile solver.mem.pprof .

# solverbench regenerates the committed strategy comparison.
solverbench:
	$(GO) run ./cmd/mhpbench -figure solver -benchjson BENCH_solver.json

# incrementalbench regenerates the committed edit-one-method sweep
# (incremental re-analysis vs from scratch).
incrementalbench:
	$(GO) run ./cmd/mhpbench -figure incremental -benchjson BENCH_incremental.json

# clockedbench regenerates the committed clock-blind vs clock-aware
# comparison (pair counts and solve times over the clocked corpus).
clockedbench:
	$(GO) run ./cmd/mhpbench -figure clocked -benchjson BENCH_clocked.json

# serversmoke starts a real fx10d, drives every endpoint once over
# TCP with curl (checking each answer), and fails unless a SIGTERM
# drain then exits 0.
serversmoke:
	./scripts/server_smoke.sh

# benchcheck vets and tests the bench/ module, which has its own
# go.mod and so is not reached by `go test ./...` at the root: an
# engine or server API change that breaks the benchmark fails here.
benchcheck:
	cd bench && $(GO) vet ./... && $(GO) test ./...

figures:
	$(GO) run ./cmd/mhpbench -figure all

# fuzz is the full differential soundness run (observed ⊆ exact ⊆
# static across all solver strategies); fuzz-smoke is the fixed-seed
# CI subset, sized to finish within a minute.
fuzz:
	$(GO) run ./cmd/fx10 fuzz -seeds 1,2,3,4 -n 250

fuzz-smoke:
	$(GO) run ./cmd/fx10 fuzz -seeds 1 -n 200

# clocked-smoke is the CI gate for the clock-aware analysis: a
# fixed-seed clocked differential fuzz run (observed ⊆ exact ⊆ static
# under the barrier semantics; fails on any soundness violation) plus
# a small clocked figure.
clocked-smoke:
	$(GO) run ./cmd/fx10 fuzz -clocked -seeds 1 -n 150
	$(GO) run ./cmd/mhpbench -figure clocked -n 10

# gofrontbench regenerates the committed Go-front-end figure
# (per-corpus-program lowering coverage and pair counts; fails if a
# runtime-observed pair escapes the static relation).
gofrontbench:
	$(GO) run ./cmd/mhpbench -figure gofront -benchjson BENCH_gofront.json

# gofront-smoke is the CI gate for the Go front end: the committed
# goprograms corpus under the race detector (observed ⊆ static on
# every file) plus a fixed-seed cross-front-end oracle run (X10 and
# Go renderings of the same program must analyze bit-identically
# under every solver strategy).
gofront-smoke:
	$(GO) test -race -run 'TestGoPrograms' -count=1 ./internal/gofront
	$(GO) run ./cmd/fx10 fuzz -frontends -seeds 1 -n 200
