// Command perfbench is the repository's benchmark: three workloads
// driven through the program's public entry points, an untraced pass
// for the end-to-end metrics, a separate traced pass and a set of layer
// probes for the per-layer metrics, and output checks that fail the
// run. BENCHMARK.json at the repository root declares the workloads,
// the metrics and the end-to-end bounds.
//
// Run it from the repository root; run.sh builds it from the checkout's
// sources first:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 35 --trace 0
//
// Every line before the last is a human-readable breakdown; the last
// line is one JSON object {"correct", "attempted", "failed", "metrics"}.
// A failed check makes "correct" false and the exit status 1. The
// benchmark's own tests run each workload at a reduced size:
//
//	cd perfbench && go test -race .
//
// # Workloads
//
// Load comes from this one process, with at most runtime.NumCPU()
// workers and client connections.
//
//   - paper-sweep: the 68 registry scenarios outside the cache family,
//     each through scenario.Execute at Jobs=1 on one goroutine. It is the
//     paper reproduction and loads the cycle-level core (cpu), mem,
//     predictor, the attacks trial driver and the defense stacks; the
//     two defense matrices take about two thirds of its time. It never
//     reaches server, cachebench or the parallel path of runner.
//   - cachebench-full: cachebench-matrix-full, 976 cases, through
//     scenario.Execute at Jobs=NumCPU. It loads mem.Hierarchy, the
//     cachebench stepper, asm, stats and the runner.Map fan-out, and
//     spends no cycles in the out-of-order pipeline or the predictors:
//     it is the control workload for a core-only change, where the
//     prediction is no change.
//   - serve-cold-hot: an in-process vpserver (Workers=NumCPU,
//     TrialJobs=1, the default in-memory store) on a loopback listener,
//     with NumCPU closed-loop clients that each POST a synchronous
//     submission and wait for the reply before sending the next. The
//     cold phase submits every registered cachebench, case, variant,
//     eviction and smt scenario once (1033 misses that execute and
//     write the store); the hot phase re-submits ten seeded permutations
//     of them (10330 hits read from the store). It is the only workload
//     where the server, Spec.Canonical and Hash, the store and HTTP
//     dominate; each pass starts a fresh server so the cold phase finds
//     an empty store.
//
// The seed permutes the run order and the hot request order, and
// offsets every spec's Seed by seed-1; the workloads receive only the
// generated specs. Seed 1 leaves the registry's seeds as they are, and
// only there do the pinned digests (digests.json) and the verdict count
// apply.
//
// # End-to-end metrics
//
// Every workload reports every end-to-end metric, from untraced passes,
// each the median over the passes of one run:
//
//	setup_s       set-up time: a fresh process running --setup-only, which
//	              covers package initialization (the scenario registry),
//	              generating the inputs, starting the server and a
//	              warm-up pass at 4 trials per case; median of 7
//	wall_s        one pass: the time inside the workload's calls
//	work_per_s    the workload's unit of work per host second:
//	              simulated retired instructions (paper-sweep, counted
//	              on the untimed reference pass), cases judged
//	              (cachebench-full), hot requests answered (serve-cold-hot)
//	peak_heap_mb  peak Go heap object bytes during a pass
//
// The breakdown adds call latencies — op_p50_ms and op_p90_ms over every
// scenario.Execute or HTTP request, and cold_p50_ms, hot_p50_us and
// hot_p99_us for serve-cold-hot — and err_frac (failed ÷ attempted, as
// in the result line).
//
// # Per-layer metrics
//
// The traced pass gives each spec a tracer whose sink (layerSink) folds
// the program's own spans — scenario, map, worker, trial, setup,
// kernel, probe, stats, merge — into self time per span name as the
// events arrive, and a metrics registry for the simulated counters.
// Self time is taken per timeline lane, so on paper-sweep the self
// times of all spans sum to the scenario spans' duration, and those sum
// to the traced pass's time (the breakdown prints traced.scenario_s
// next to traced.wall_s). For the server, the pass wraps the Store in
// server.Config.Store and the http.Handler in call timers. Untraced and
// traced passes alternate, U T then T U, and obs.overhead_frac is the
// median over pairs of traced ÷ untraced time − 1.
//
// A layer a workload does not reach reads 0, so span and call times are
// reported as shares of the traced time (layer seconds per wall second;
// concurrent layers can exceed 1) rather than as times; the breakdown
// prints the same layers in seconds per pass. Which end-to-end metric
// each layer metric should move, and where:
//
//	layer      metrics                                          moves                  on
//	scenario   scenario.execute_share.<kind>                    wall_s                 paper-sweep (defense matrix share)
//	attacks    attacks.trials, attacks.{setup,kernel,probe,     wall_s, work_per_s     paper-sweep
//	           stats}_share
//	cpu        cpu.cycles, cpu.retired, cpu.ipc (simulated),    work_per_s             paper-sweep
//	           cpu.useful_frac (retired ÷ fetched),
//	           cpu.squashes, cpu.replays
//	mem, pred  mem.{l1d,l2,tlb}.hit_rate, mem.dram.reads,       none: simulated        paper-sweep
//	           pred.lookups, pred.accuracy                      identities
//	runner     runner.items, runner.busy_frac, runner.retries,  work_per_s             cachebench-full
//	           runner.queue_share, runner.merge_share
//	server     server.hit_ratio, server.rejected,               work_per_s, wall_s     serve-cold-hot
//	           server.{submit,store_get,store_put}_share
//	obs        obs.overhead_frac                                none                   all
//
// The layer probes time one layer's public function on inputs shaped
// like the workloads', the same on every workload:
//
//	mem.cache_lookup_ns         mem.Cache.Lookup              work_per_s    paper-sweep, cachebench-full
//	mem.hier_access_ns          mem.Hierarchy.Access          work_per_s    cachebench-full
//	pred.lvp_ns, pred.vtage_ns  Predict + Update              work_per_s    paper-sweep
//	cpu.run_ns_per_cycle        Machine.Run, pointer-chase    work_per_s    paper-sweep
//	asm.assemble_us             asm.Assemble, a cache case    work_per_s    cachebench-full
//	isa.compile_us              isa.Compile, a cache case     work_per_s    cachebench-full
//	stats.welch_us              100 + 100 samples             work_per_s    cachebench-full
//	stats.mannwhitney_us        100 + 100 samples             work_per_s    cachebench-full
//	runner.item_ns              runner.Map, no-op items       work_per_s    cachebench-full
//	scenario.hash_us            Spec.Hash                     work_per_s    serve-cold-hot
//	scenario.canonical_json_us  Result.CanonicalJSON          wall_s        serve-cold-hot (cold phase)
//	server.hit_rtt_us           one client, one hot request   work_per_s    serve-cold-hot
//
// So a change confined to cpu or predictor should move paper-sweep and
// leave cachebench-full and the hot phase unchanged; a runner change
// shows on cachebench-full and barely on paper-sweep; a store or hash
// change shows only on serve-cold-hot, its cold phase for writes and
// its hot phase for reads.
//
// # Output checks
//
// A failed check counts in "failed" and makes the run fail:
//
//   - at seed 1, the SHA-256 over the compacted result JSON of the
//     workload's scenarios, in registry order, equals digests.json;
//   - every pass, traced or not, produces the reference pass's bytes;
//   - at seed 1, cachebench-matrix-full finds 170 of 976 cases
//     vulnerable, all six cachebench.KnownAttacks among them;
//   - every cold reply is a finished miss, and every hot reply a hit
//     whose result bytes equal the cold reply's for the same spec;
//   - the simulated counters of the traced passes repeat exactly.
//
// # Left to later changes
//
//   - Retire tools/benchcore, tools/benchmetrics, tools/benchobs and the
//     BENCH_*.json files they write, whose comparisons against a wall
//     clock stored from another machine this benchmark replaces.
//   - Add spans inside the program where the benchmark can only time
//     from outside: the server's queue wait (JobView does not expose
//     it), its store and handler, and the scenario kinds that start
//     their runner maps from context.Background instead of the
//     scenario span.
package main
