GO ?= go

.PHONY: all build tier1 tier2 tier-race tier-conform tier-lint tier-obs tier-durable tier-bench tier-all vet fmt-check test bench-engine bench-json bench-diff clean

all: build

build:
	$(GO) build ./...

# Tier 1: the gate every change must keep green.
tier1: build
	$(GO) test ./...

# Tier 2: static hygiene.
tier2: vet fmt-check

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Tier race: the runtime-critical packages under the race detector — the
# core protocol plus the full rt and obs suites (worker pool, GetSetup
# memoization, record buffers, coalescing sinks) and the value analysis
# (concurrent Analyze on one graph, per-call scratch). The race runtime is
# ~15x slower than native, hence the explicit timeout.
tier-race:
	$(GO) test -race -timeout 30m ./internal/core/... ./internal/rt/... ./internal/obs/... ./internal/absint/...

# Tier conform: the cross-model conformance gate — the conform package's
# unit tests and checked-in fuzz corpus, the six-benchmark × 37-point I2
# property, then the full campaign: 200 seeded random programs plus all
# benchmarks through exec/simple/OOO-simple-mode/WCET in lockstep. The
# campaign seed is pinned so the corpus is deterministic.
tier-conform:
	$(GO) test ./internal/conform/...
	$(GO) run ./cmd/experiments -campaign conform -seed 1 -n 200

# Tier lint: the custom static-analysis gate — the lint framework's own
# unit and golden tests, then the visavet suite (detlint, seedlint,
# hotalloc, errlint) over the whole repo. Zero unsuppressed findings is
# the bar; justified escapes use //visa:allow(<analyzer>): <reason>.
tier-lint:
	$(GO) test ./internal/lint/...
	$(GO) run ./cmd/visavet ./...

# Tier obs: the coalescing-sink scaling benchmarks, run for 100 iterations
# so a scaling regression fails loudly. The obs, rt and cmd/experiments
# test suites behind the observability layer already run in tier1.
tier-obs:
	$(GO) test -run '^$$' -bench 'Coalescing|PerEventRecordWrite' -benchtime 100x -benchmem ./internal/obs/

# Tier durable: the crash-safety gate — the write-ahead journal package
# (torn-tail sweep, corruption rejection, fuzz seeds, alloc-free append)
# and the whole serve package (recovery suite with the crash-prefix
# property, admission, drain, handlers, client) under the race detector,
# then the visad SIGKILL/restart e2e and the chaos campaign (3 seeded
# SIGKILLs mid-campaign, restart at rotating -j, byte-identical reports).
# The race-built test binary builds a race-built daemon, so the killed
# daemons run under the race detector too. The other visad e2e tests
# (determinism across -j, SIGTERM drain, 50-client visaload) run in tier1.
tier-durable:
	$(GO) test -race ./internal/wal/ ./internal/serve/
	$(GO) test -race -run 'TestCrashRecovery|TestChaosCampaign' ./cmd/visad/

# Tier bench: the repo benchmark's own tests. bench/ is a separate Go
# module, so the root `go test ./...` never reaches it. The suite checks
# the percentile rules, BENCHMARK.json against the workload catalog and the
# failure accounting, then smokes every workload (-quick), traced and
# untraced, against the pinned goldens in bench/testdata.
tier-bench:
	cd bench && $(GO) test ./...

# Tier all: every gate in one invocation.
tier-all: tier1 tier2 tier-race tier-conform tier-lint tier-obs tier-durable tier-bench

# Records the serial-vs-parallel wall-clock of the full evaluation
# (`experiments -all -n 20` equivalent; see bench_test.go).
bench-engine:
	$(GO) test -run '^$$' -bench 'BenchmarkExperimentsAll' -benchtime 1x .

# Writes BENCH_$(N).json, a new committed benchmark record (name, ns/op,
# B/op, allocs/op, custom metrics) covering the evaluation-level engine
# benchmarks (one shot each — they run whole experiment tables), the static
# analysis builds (WCET tables, value analysis), the per-cycle pipeline Feed
# kernels whose allocs/op the hotalloc analyzer guards, and the
# coalescing-sink hot path (Add must stay 0 allocs/op at wide thresholds).
# N is required and must name a record that does not exist yet, so a run
# never overwrites a committed record. After writing, bench-diff gates the
# record against the previous one. Usage: make bench-json N=16
bench-json:
	@test -n "$(N)" || { echo "bench-json: set N, the new record's number (make bench-json N=16)"; exit 1; }
	@test ! -e BENCH_$(N).json || { echo "bench-json: BENCH_$(N).json exists; pick a new N"; exit 1; }
	( $(GO) test -run '^$$' -bench 'Table3|Figure|FunctionalExecutor|SimplePipeline|ComplexPipeline|WCETAnalysis|WCETTable|ValueAnalysis' -benchtime 1x -benchmem . && \
	  $(GO) test -run '^$$' -bench 'PipelineFeed' -benchmem ./internal/simple/ ./internal/ooo/ && \
	  $(GO) test -run '^$$' -bench 'Coalescing|PerEventRecordWrite' -benchmem ./internal/obs/ ) \
	  | $(GO) run ./cmd/benchjson -o BENCH_$(N).json

# Gates the performance trajectory on the committed records: compares the
# two most recent BENCH_N.json and fails on >20% ns/op growth or any
# allocs/op increase in the pinned cycle-loop kernels.
bench-diff:
	$(GO) run ./cmd/benchdiff

test: tier1

clean:
	$(GO) clean ./...
