# Standard entry points; CI (.github/workflows/ci.yml) runs vet+build+test+race.

GO ?= go

.PHONY: all vet build test race bench bench-all bench-check ci

all: build

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the concurrency layer. internal/parallel, internal/obs
# (lock-free instruments, concurrent tracer/audit) and internal/serve
# (the serving tier: concurrent admission, weighted-fair queue, fault
# injection) are fast enough to race in full; the experiments and
# workload suites run with -short so the concurrency regression tests
# (singleflight, 64-goroutine stress, fuzz seed corpus) execute under
# the detector without paying for the full artifact pipeline at ~10x
# race overhead. `make test` covers the heavy paths (including the
# parallel-vs-serial determinism golden) natively. The streaming
# speculator, the classifier ensemble (concurrent member fits, locked
# vote cache) with its dedup consumer, and pks's two-level paths (holdout
# probe and final fit overlap) race too. Same lines as CI's Race step.
race:
	$(GO) test -race ./internal/parallel/... ./internal/obs/... ./internal/serve/...
	$(GO) test -race -short ./internal/experiments/... ./internal/workload/...
	$(GO) test -race -run 'Stream|Speculator' ./internal/core/... ./internal/pks/... ./internal/sampling/...
	$(GO) test -race ./internal/classify/... ./internal/dedup/...
	$(GO) test -race -short -run 'TwoLevel|MaxDetailed|Golden' ./internal/pks/...

# Snapshot the perf trajectory: substrate microbenchmarks at full benchtime
# (BenchmarkSimTick's allocs/op==0 only means something once setup costs
# amortize) plus the study fan-out speedup at one iteration, rendered into
# a diffable JSON artifact. bench-all is the old full artifact sweep.
bench:
	@{ $(GO) test -run NONE -bench 'SimTick' -benchmem ./internal/sim ; \
	   $(GO) test -run NONE -bench 'SimulatorThroughput|RollingDetector|KMeansSweep|SiliconModel|WorkloadGeneration' -benchmem . ; \
	   $(GO) test -run NONE -bench 'StudyParallel|StudyKernelSched|StudyCache|StudyRemote|StudySuiteDedup|StudyStream|Serve' -benchtime=1x . ; } \
	| $(GO) run ./cmd/benchjson -o BENCH_study.json -baseline BENCH_study.json \
	    -note "on a recorder with fewer than 4 CPUs (see gomaxprocs) the parallel and remote sub-benches (StudyParallel/p=4, StudyRemote/workers=2) can be slower than their serial arms because fan-out only adds overhead without cores to spread across; their speedup gates apply on >= 4 CPUs"
	@echo wrote BENCH_study.json

bench-all:
	$(GO) test -bench=. -benchtime=1x .

# Regression smoke: re-run the two hot-path benchmarks and fail if either
# is more than 25% slower than the committed BENCH_study.json, measuring
# each side's ns/op in units of its own SiliconModel ns/op. SiliconModel
# is a pure-CPU, allocation-free yardstick run in the same pipe (at the
# default benchtime: it takes nanoseconds per op), so the gate compares
# the code's speed relative to the machine and a slower runner alone does
# not trip it. Short benchtime keeps this cheap enough for CI; the
# generous tolerance absorbs runner noise while still catching real
# algorithmic regressions.
# The second stage gates relative speed within this run: the study must
# scale (p=4 at least 1.5x faster than p=1, skipped below 4 CPUs), the
# warm artifact cache must be at least 5x faster than cold, and two
# loopback worker processes must beat single-process by 1.5x (also
# skipped below 4 CPUs — worker processes on one core only add RPC
# overhead). The third stage bounds the serving tier's overhead: the
# same request batch through the HTTP server (decode, admission,
# weighted-fair queue, marshaling) may cost at most 3x the serial batch
# path, tracing-enabled serving may cost at most 1.2x tracing-off, and
# the open-loop qps arm records client-observed p50/p99. The fourth stage
# pins the suite-dedup saving itself: per-app PKS must simulate at least
# 1.3x more warp-instructions than the shared cross-workload selection on
# the gauss suite — the headline reduction internal/dedup exists for.
# The fifth stage gates the streaming overlap: at >= 4 CPUs the streaming
# pipeline must finish at least 1.3x faster than the phase-sequential run
# of the same study (skipped below 4 CPUs, where there are no spare cores
# to overlap speculative simulation onto).
bench-check:
	@{ $(GO) test -run NONE -bench 'SimulatorThroughput' -benchtime=5x . ; \
	   $(GO) test -run NONE -bench 'KMeansSweep' -benchtime=5x . ; \
	   $(GO) test -run NONE -bench 'SiliconModel' . ; } \
	| $(GO) run ./cmd/benchjson -baseline BENCH_study.json \
	    -check SimulatorThroughput,KMeansSweep -tolerance 25
	@$(GO) test -run NONE -bench 'StudyParallel/p=|StudyCache/(cold|warm)|StudyRemote/(local|workers)' -benchtime=1x . \
	| $(GO) run ./cmd/benchjson -o /dev/null \
	    -check-ratio 'StudyParallel/p=1:StudyParallel/p=4:1.5:4,StudyCache/cold:StudyCache/warm:5,StudyRemote/local:StudyRemote/workers=2:1.5:4'
	@$(GO) test -run NONE -bench 'Serve/(direct|served|traced|qps)' -benchtime=1x . \
	| $(GO) run ./cmd/benchjson -o /dev/null \
	    -check-max-ratio 'Serve/served:Serve/direct:3,Serve/traced:Serve/served:1.2'
	@$(GO) test -run NONE -bench 'StudySuiteDedup' -benchtime=1x . \
	| $(GO) run ./cmd/benchjson -o /dev/null \
	    -check-metric-ratio 'warp-instrs:StudySuiteDedup/perapp:StudySuiteDedup/dedup:1.3'
	@$(GO) test -run NONE -bench 'StudyStream/(sequential|streaming)' -benchtime=1x . \
	| $(GO) run ./cmd/benchjson -o /dev/null \
	    -check-ratio 'StudyStream/sequential:StudyStream/streaming:1.3:4'

ci: vet build test race bench-check
