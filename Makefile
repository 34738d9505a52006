# Standard-library Go only; everything runs offline.

GO ?= go
GOFMT ?= gofmt

.PHONY: build test vet race bench fmt ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchmem

# Formatting gate: fails, listing the files, when gofmt would change any.
fmt:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; \
	fi

# Tier-1 gate: what must stay green on every change.
ci: fmt build vet test

# Robustness gate: the seeded chaos suite (fault injection, degradation,
# determinism) plus a short fuzz smoke of the format parser.
ci-chaos:
	$(GO) test -run 'TestChaos' ./internal/workload/
	$(GO) test -run 'TestReliable' ./internal/mpi/
	$(GO) test -run 'Fault|Timeout|Kill|Degradation|Recover|Lossy|Mailbox' ./internal/core/ ./internal/fault/
	$(GO) test -run '^$$' -fuzz=FuzzParse -fuzztime=5s ./internal/fmtmsg
.PHONY: ci-chaos

# Observability gate: profiler, flight recorder, sampling, congestion
# telemetry, metrics endpoint, the zero-virtual-cost guarantee, and the
# critical-path analyzer (exact partition, golden blame table, blame
# diff) — plus a profile-experiment smoke run exercising both export
# formats.
ci-obs:
	$(GO) test -run 'Observability|Flight|Sampling|Chrome|Telemetry|Attach|ChunkSpan|StreamInflight' ./internal/core/ ./internal/trace/
	$(GO) test ./internal/profile/ ./internal/metrics/ ./internal/critpath/
	$(GO) test -run 'CritPath|GoldenBlame|BlameDiff' ./internal/workload/
	$(GO) run ./cmd/cellpilot-bench -exp profile -reps 5 -trace-type 2 \
		-folded /tmp/cellpilot-ci.folded -pprof /tmp/cellpilot-ci.pb.gz >/dev/null
	@rm -f /tmp/cellpilot-ci.folded /tmp/cellpilot-ci.pb.gz
.PHONY: ci-obs

# Scenario-fleet gate: the scenario DSL unit suites (parser, lowering,
# assertions, CLI verbs), a short fuzz smoke of the YAML-subset parser,
# then the checked-in scenarios/ library validated end to end against
# its golden determinism fingerprints. `go run ./cmd/cellpilot-bench
# validate -quick` is the cheap variant (shrunk measurement arms, golden
# comparison skipped).
ci-scenarios:
	$(GO) test ./internal/scenario/ ./cmd/cellpilot-bench/
	$(GO) test -run '^$$' -fuzz=FuzzScenarioParse -fuzztime=5s ./internal/scenario/
	$(GO) run ./cmd/cellpilot-bench validate
.PHONY: ci-scenarios

# Timeline gate: the windowed virtual-time telemetry recorder (bucket
# math, analytics, recovery detection, fingerprints), its core/App and
# scenario-DSL integrations (temporal assertions, zero-cost contract),
# then the two scenarios that carry calibrated temporal assertions
# validated against their golden fingerprints.
ci-timeline:
	$(GO) test ./internal/timeline/
	$(GO) test -run 'Timeline|Temporal|ClockHook' ./internal/sim/ ./internal/core/ ./internal/scenario/
	$(GO) run ./cmd/cellpilot-bench validate scenarios/az-node-loss.yaml scenarios/hotspot-contention.yaml
.PHONY: ci-timeline

# Flow-observatory gate: the flowmap unit suite (bounded exact table,
# overflow bucket, fingerprint stability, matrix growth), the
# zero-virtual-cost proof with the flowmap arm, the kernel-arm
# determinism check (flow tables bit-identical across the sequential and
# sharded drivers), the scenario-DSL `flow` assertion suites, and the
# relay-hotspot scenario validated against its golden fingerprint.
ci-flows:
	$(GO) test ./internal/flowmap/
	$(GO) test -run 'ObservabilityZeroCost|KernelArms' ./internal/core/ ./internal/workload/
	$(GO) test -run 'TestFlow' ./internal/scenario/
	$(GO) run ./cmd/cellpilot-bench validate scenarios/relay-hotspot.yaml
.PHONY: ci-flows

# Kernel microbenchmarks: calendar-queue push/pop, steady-state churn and
# the arm/cancel/purge path, the allocation-free dispatch/handoff paths,
# the proc coroutine switch and a proc's whole spawn-to-exit lifecycle
# (-benchmem makes a pooling regression visible as allocs/op).
bench-kernel:
	$(GO) test -run '^$$' -bench 'HeapPushPop|QueueChurn|TimerCancelPurge|EventThroughput|QueueHandoff|ContextSwitch|EventDispatch|Spawn' -benchmem ./internal/sim/
.PHONY: bench-kernel

# Parallel-kernel gate: the sharded runtime's determinism suites under
# the race detector — the sim-layer worker-pool tests and goroutine-leak
# check, the calendar queue against its heap oracle, the kernel
# dispatch-trace golden, the kiloscale seq-vs-par fingerprint
# equivalence, and the scenario fleet driven through the sharded runtime.
ci-parallel:
	$(GO) test -race -run 'TestSharded|TestRunLeavesNoGoroutines|TestQueueDifferential|TestKernelDispatchTraceGolden|TestCancelCompaction' ./internal/sim/
	$(GO) test -race -run 'Kiloscale|KernelArms' ./internal/workload/
	$(GO) test -race -run 'TestScenarioFleet' ./internal/scenario/
.PHONY: ci-parallel

# Machine-readable benchmark results (BENCH_<exp>.json) under results/.
bench-json:
	@mkdir -p results
	$(GO) run ./cmd/cellpilot-bench -exp pingpong -out results
	$(GO) run ./cmd/cellpilot-bench -exp sizesweep -out results
.PHONY: bench-json

# Performance-regression gate: re-measure the five-type pingpong grid and
# fail if any channel type's mean one-way latency regressed >10% vs the
# committed results/BENCH_pingpong.json baseline. A tripped gate prints
# the critical-path blame diff against results/BLAME_pingpong.json, naming
# the stage that got slower and whether it is service or queueing time.
# Virtual time is deterministic, so the gate reads no wall clock.
bench-guard:
	$(GO) run ./cmd/cellpilot-bench -exp guard
.PHONY: bench-guard

# Host-cost gate, free of wall-clock noise: the hostprof unit suite, the
# exact kernel-count golden per Table I type (events, queue pushes/pops,
# cancelled-timer purges, execution slices), the allocation ceilings
# (cluster build, clean and hardened round trips, zero-alloc kernel
# dispatch/switch/handoff), the host-side determinism proofs, then the
# kernel microbenchmarks. Host wall-clock cost is perfbench's to measure
# (`make perf`, perfbench/README.md).
ci-host:
	$(GO) test ./internal/hostprof/ ./cmd/cellpilot-bench/
	$(GO) test -run 'AllocCeiling' ./internal/cluster/ ./internal/core/
	$(GO) test -run 'TestSteadyStateZeroAllocs' ./internal/sim/
	$(GO) test -run 'HostProf|ObservabilityZeroCost|KernelCountGolden' ./internal/workload/ ./internal/core/
	$(GO) test -run '^$$' -bench 'HeapPushPop|TimerCancelPurge|EventDispatch|ContextSwitch' -benchtime 100000x ./internal/sim/
.PHONY: ci-host

# Repository benchmark (perfbench/): run its three workloads from this
# checkout into .bench_build/perf/<workload>.out. The previous run's
# outputs move to .bench_build/perf.prev/ first and each workload is
# compared against them, so `make perf` on a base commit and then on a
# change prints the change's deltas.
perf:
	@rm -rf .bench_build/perf.prev
	@if [ -d .bench_build/perf ]; then mv .bench_build/perf .bench_build/perf.prev; fi
	@mkdir -p .bench_build/perf
	@for w in pingpong-grid scenario-fleet fleet; do \
		out=.bench_build/perf/$$w.out; \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 8 --trace 0 >$$out; st=$$?; \
		grep -v '^{' $$out; [ $$st -eq 0 ] || exit $$st; \
		if [ -f .bench_build/perf.prev/$$w.out ]; then \
			echo "# $$w: previous run -> this run"; \
			bash perfbench/run.sh compare .bench_build/perf.prev/$$w.out $$out || exit 1; \
		fi; \
	done
.PHONY: perf

# Deeper sweep (slower): tier-1 plus the race detector, the chaos,
# observability, scenario-fleet and host-cost gates, the perf-regression
# guard, and staticcheck when the host has it installed.
ci-full: ci race ci-chaos ci-obs ci-scenarios ci-timeline ci-flows ci-parallel bench-guard ci-host
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi
.PHONY: ci-full
