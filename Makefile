# Developer entry points. `make check` is the gate a change must pass;
# `make diff` runs the full differential-oracle harness (1000 generated
# programs against the in-order reference model — see DESIGN.md §9);
# `make fuzz` runs the coverage-guided version of the same harness for
# a bounded time; `make bench-metrics` regenerates BENCH_metrics.json,
# the tracked record of the metrics registry's hot-loop overhead (< 5%
# budget); `make bench-runner` regenerates BENCH_runner.json, the
# tracked sequential-vs-parallel record of the experiment runner
# (byte-identical metrics required, >= 2x speedup on >= 4 cores);
# `make bench-core` regenerates BENCH_core.json, the tracked record of
# the cycle-level core's own speed (>= 8x wall-clock and >= 10x fewer
# allocations per instruction vs the recorded baseline, byte-identical
# metrics required — see DESIGN.md §10); `make bench-full` asserts the
# ROADMAP's one-core 68-scenario sweep target; `make bench-obs` regenerates
# BENCH_obs.json, the tracked overhead record of the execution-tracing
# layer (untraced runs within 2% of the BENCH_core speed, metrics
# exports byte-identical with tracing on — see DESIGN.md §12).

GO ?= go
FUZZTIME ?= 30s

.PHONY: check build test vet race bench bench-metrics bench-runner bench-core bench-obs bench-full alloc-budget sched-order docs diff fuzz scenarios cachebench defense-check server-check

check: vet build race alloc-budget sched-order diff scenarios cachebench defense-check docs bench-obs server-check

# Defense-architecture gate (DESIGN.md §14): the mechanism catalog is
# exhaustive (every mechanism addressable, round-tripping through the
# stack parser and the JSON codec, and engaging at least one capability
# interface), vpdefense's catalog listing matches its goldens, the
# legacy 11-strategy matrix/sweep renders and canonical spec hashes are
# byte-identical to the pinned goldens, and the two post-paper
# mechanisms (recompute, isolate) each close their previously leaking
# cell at reduced trial counts.
defense-check:
	$(GO) test ./internal/attacks -run 'TestMechanismCatalogExhaustive|TestParseStackErrors|TestOptionsDefenseJSON|TestDefenseStackBasics' -count=1
	$(GO) test ./cmd/vpdefense ./internal/defense -count=1
	$(GO) test ./internal/scenario -run 'TestDefenseMatrixGolden|TestDefenseSweepGolden|TestSpecHashesGolden' -count=1

# Experiment-server gate: build cmd/vpserver, then run the end-to-end
# suite against an in-process instance — submit→poll→fetch, cache-hit
# byte identity, singleflight, admission control, drain — plus the
# VPSERVER_FULL-gated acceptance runs: the full registry (including
# the 978 cachebench entries) batched cold and re-batched hot (all
# cache hits). See docs/SERVER.md.
server-check:
	$(GO) build -o /dev/null ./cmd/vpserver
	VPSERVER_FULL=1 $(GO) test ./internal/server -count=1

# Scenario registry gate: every registered spec validates, round-trips
# through JSON byte-for-byte, matches the committed golden registry
# (testdata/registry.json; -update moves it deliberately), hashes
# stably across its own serialization, and executes byte-identically
# at every -jobs level (see internal/scenario).
scenarios:
	$(GO) test ./internal/scenario -run 'TestRegistryGolden|TestRoundTrip|TestRegistryCoverage|TestRegisteredScenariosExecute|TestRegistryHashRoundTrip|TestRegistryExecuteJobsInvariance' -count=1

# Cache-vulnerability benchmark gate: the three-step taxonomy package
# (enumeration, lowering, statistics, and the full 976-case family at
# the paper's sample size) plus the golden-pinned
# `vpreport -scenario cachebench-matrix` artifact.
cachebench:
	$(GO) test ./internal/cachebench -count=1
	$(GO) test ./internal/scenario -run 'TestCacheMatrixGolden|TestCacheMatrixHashJobsInvariant' -count=1

# Steady-state allocation budgets of the simulator hot loop, the
# pooled attack trial (DESIGN.md §10) and the cache-benchmark trial.
# Runs without -race: the race detector instruments allocations and
# the tests exclude themselves under that build tag.
alloc-budget:
	$(GO) test ./internal/cpu -run TestMachineRunSteadyStateAllocs -count=1
	$(GO) test ./internal/attacks -run TestTrialDisabledPathAllocs -count=1
	$(GO) test ./internal/cachebench -run TestTrialSteadyStateAllocs -count=1

# Bitmap-scheduler ordering gate: within a cycle, issue must stay
# strictly oldest-first (the contract the old seq-sorted ready list
# enforced by construction), with scoreboard⟺entry invariant
# cross-checks on, over a hazard-biased progen corpus.
sched-order:
	$(GO) test ./internal/cpu -run TestIssueOrderOldestFirst -count=1

# Differential oracle: every generated program must commit the same
# state in the same order as the in-order reference model, on every
# machine spec. A failure prints the generator seed (a complete
# reproducer) and a shrunk program.
diff:
	$(GO) test ./internal/oracle -run 'TestDiff|TestGolden' -count=1

# Coverage-guided differential fuzzing over (generator seed, machine
# spec) pairs, time-boxed. The corpus is checked in under
# internal/oracle/testdata/fuzz.
fuzz:
	$(GO) test ./internal/oracle -run '^$$' -fuzz FuzzDiffOracle -fuzztime $(FUZZTIME)

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$

# Compare the simulator hot loop with and without an attached metrics
# registry and write the overhead record. benchtime=5x keeps the noise
# below the effect; bump it locally if the two runs look unstable.
bench-metrics:
	$(GO) run ./tools/benchmetrics -benchtime 5x -count 3 -o BENCH_metrics.json

# Run the same attack sweep at -jobs 1 and -jobs <cores>, verify the
# metrics exports are byte-identical, and write the wall-clock record.
bench-runner:
	$(GO) run ./tools/benchmetrics -runner -runs 100 -o BENCH_runner.json

# Re-measure the cycle-level core on the Fig. 5 Train+Test sweep and
# compare against the recorded baseline in BENCH_core.json (fails
# below the speedup/allocation budgets — >= 8x wall-clock and >= 10x
# fewer allocations since the bitmap-scoreboard rework — or on any
# metrics-export difference). `go run ./tools/benchcore -rebase` moves
# the baseline.
bench-core:
	$(GO) run ./tools/benchcore -o BENCH_core.json

# The ROADMAP's standing one-core target as an executable gate: the
# full 68-scenario registry sweep (cachebench families excluded) at
# paper-default sample size must finish in single-digit seconds on a
# single core. Heavyweight, so gated behind VPBENCH_FULL.
bench-full:
	VPBENCH_FULL=1 $(GO) test ./internal/scenario -run TestRegistrySweepWallClock -count=1 -v

# Measure the tracing layer's overhead on the same sweep: the untraced
# (nil-tracer) path must stay within 2% of the BENCH_core wall clock,
# and the metrics exports must be byte-identical with tracing on and
# off. Wall clocks only compare on the machine that recorded
# BENCH_core.json — run `make bench-core` first after switching
# hardware.
bench-obs:
	$(GO) run ./tools/benchobs -o BENCH_obs.json

# Documentation gate: vet, formatting, and doc coverage of the
# experiment surface (every exported symbol in the runner, attacks,
# report, oracle, progen, scenario, obs and server packages must carry
# a doc comment — godoc is the reference documentation the experiments
# guide links into). -api keeps docs/SERVER.md aligned with the routes
# internal/server actually registers.
docs: vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	$(GO) run ./tools/doccheck -api docs/SERVER.md:internal/server ./internal/runner ./internal/attacks ./internal/report ./internal/oracle ./internal/progen ./internal/scenario ./internal/obs ./internal/server ./internal/cachebench ./internal/defense
