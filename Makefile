GO ?= go

.PHONY: all build tier1 tier2 tier-race tier-conform tier-lint tier-durable tier-bench tier-results tier-all results vet fmt-check test bench-record bench-diff clean

all: build

build:
	$(GO) build ./...

# Tier 1: the gate every change must keep green.
tier1: build
	$(GO) test ./...

# Tier 2: static hygiene.
tier2: vet fmt-check

# bench/ is a separate Go module, so it is vetted on its own.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Tier race: the runtime-critical packages under the race detector — the
# core protocol plus the full rt and obs suites (worker pool, GetSetup
# memoization, record buffers, coalescing sinks), the value analysis
# (concurrent Analyze on one graph, per-call scratch) and the conformance
# oracle (each Check takes a model set from a shared free list and owns it
# until it returns, so a set shared across engine workers shows up here). The race runtime is ~15x slower than
# native, hence the explicit timeout.
tier-race:
	$(GO) test -race -timeout 30m ./internal/core/... ./internal/rt/... ./internal/obs/... ./internal/absint/... ./internal/conform/...

# Tier conform: the cross-model conformance gate — the conform package's
# unit tests and checked-in fuzz corpus, the six-benchmark × 37-point I2
# property, then the full campaign: 200 seeded random programs plus all
# benchmarks through exec/simple/OOO-simple-mode/WCET in lockstep. The
# campaign seed is pinned so the corpus is deterministic, and its report
# must print cmd/experiments/testdata/conform_seed1_n200.txt byte for byte.
tier-conform:
	$(GO) test ./internal/conform/...
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	$(GO) run ./cmd/experiments -campaign conform -seed 1 -n 200 > "$$out" && \
	diff -u cmd/experiments/testdata/conform_seed1_n200.txt "$$out" && echo "conform campaign report reproduced"

# Tier lint: the custom static-analysis gate — the lint framework's own
# unit and golden tests, then the visavet suite (detlint, seedlint,
# hotalloc, errlint) over the whole repo. Zero unsuppressed findings is
# the bar; justified escapes use //visa:allow(<analyzer>): <reason>.
tier-lint:
	$(GO) test ./internal/lint/...
	$(GO) run ./cmd/visavet ./...

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
# untraced, against the pinned goldens in bench/testdata. The WCET table,
# value-analysis, functional-execution and conformance-oracle layer
# benchmarks run once each, so their per-program costs stay reproducible
# outside bench/.
tier-bench:
	cd bench && $(GO) test ./...
	$(GO) test -run '^$$' -bench BuildWCETTable -benchtime 1x ./internal/wcet/
	$(GO) test -run '^$$' -bench ValueAnalysis -benchtime 1x ./internal/absint/
	$(GO) test -run '^$$' -bench '^BenchmarkFill$$' -benchtime 1x ./internal/exec/
	$(GO) test -run '^$$' -bench '^BenchmarkCheck$$' -benchtime 1x ./internal/conform/

# Tier results: the full reproduction (every table and figure at 200
# instances) must print results_full.txt byte for byte.
tier-results:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	$(GO) run ./cmd/experiments -all -j 2 > "$$out" && \
	diff -u results_full.txt "$$out" && echo "results_full.txt reproduced"

# Tier all: every gate in one invocation.
tier-all: tier1 tier2 tier-race tier-conform tier-lint tier-durable tier-bench tier-results

# Regenerates results_full.txt, the committed output of the full
# reproduction that tier-results checks.
results:
	$(GO) run ./cmd/experiments -all -j 2 > results_full.txt.tmp
	mv results_full.txt.tmp results_full.txt

# Writes BENCH_$(N).json, a new committed performance record: the result
# line of every bench/run.sh run it takes (each BENCHMARK.json workload at
# seeds 1-5, and eval-steady traced at seeds 1-5), about 10 minutes on two
# cores. It refuses an existing record and writes nothing if any run fails
# or reports correct:false. Usage: make bench-record N=19
bench-record:
	$(GO) run ./cmd/benchdiff -record $(N)

# Gates the performance trajectory on the two newest committed records:
# end-to-end metrics against their BENCHMARK.json bounds, the exec/simple/
# ooo kernel rungs against +20%, each beyond the older record's spread,
# and the failure fraction (see cmd/benchdiff).
bench-diff:
	$(GO) run ./cmd/benchdiff

test: tier1

clean:
	$(GO) clean ./...
