// Command benchcore writes BENCH_core.json, the tracked performance
// record of the cycle-level core itself (internal/cpu + internal/mem).
//
// The workload is the Fig. 5 Train+Test benchmark — the four cells of
// the paper's headline figure (timing-window and persistent channels,
// with and without the LVP) at the full 100-trial sample size, run
// sequentially (-jobs 1) so the record isolates per-trial simulator
// speed from the parallel runner's scaling (BENCH_runner.json).
//
// Two modes:
//
//	benchcore -rebase   # measure and record as the new baseline
//	benchcore           # measure, compare against the recorded baseline
//
// The default mode loads the baseline section of the existing
// BENCH_core.json, re-measures the current build, and writes both back
// with the comparison. The acceptance budgets are a >= 2x wall-clock
// speedup and >= 10x fewer heap allocations per retired instruction,
// with the two metrics exports byte-identical (the optimizations must
// not change a single counter).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"time"

	"vpsec/internal/attacks"
	"vpsec/internal/core"
	"vpsec/internal/metrics"
)

// Measure is one timed execution of the benchmark workload.
type Measure struct {
	Date           string  `json:"date"`
	GoVersion      string  `json:"go_version"`
	Seconds        float64 `json:"seconds"`          // best wall-clock of -count runs
	SimCycles      uint64  `json:"sim_cycles"`       // total simulated cycles
	CyclesPerSec   float64 `json:"cycles_per_sec"`   // simulation throughput
	Retired        uint64  `json:"retired"`          // committed instructions
	Allocs         uint64  `json:"allocs"`           // heap allocations during the sweep
	AllocsPerInstr float64 `json:"allocs_per_instr"` // Allocs / Retired
	MetricsSHA256  string  `json:"metrics_sha256"`   // hash of the metrics JSON export
}

// Record is the schema of BENCH_core.json.
type Record struct {
	Runs     int     `json:"runs"` // trials per cell
	Count    int     `json:"count"`
	Baseline Measure `json:"baseline"` // pre-optimization core (benchcore -rebase)
	Current  Measure `json:"current"`

	Speedup          float64 `json:"speedup"`           // baseline seconds / current seconds
	AllocRatio       float64 `json:"alloc_ratio"`       // baseline allocs/instr / current allocs/instr
	MetricsIdentical bool    `json:"metrics_identical"` // byte-identical exports across the two builds
	SpeedupBudget    float64 `json:"speedup_budget"`
	AllocRatioBudget float64 `json:"alloc_ratio_budget"`
	Pass             bool    `json:"pass"`
}

// sweep runs the Fig. 5 Train+Test cells once at -jobs 1 and returns
// the wall time plus the registry the run published into.
func sweep(runs int) (*metrics.Registry, float64, error) {
	reg := metrics.NewRegistry()
	start := time.Now()
	for _, pk := range []attacks.PredictorKind{attacks.NoVP, attacks.LVP} {
		for _, ch := range []core.Channel{core.TimingWindow, core.Persistent} {
			opt := attacks.Options{
				Predictor: pk, Channel: ch,
				Runs: runs, Seed: 1, Jobs: 1, Metrics: reg,
			}
			if _, err := attacks.Run(core.TrainTest, opt); err != nil {
				return nil, 0, fmt.Errorf("%v/%v: %w", ch, pk, err)
			}
		}
	}
	return reg, time.Since(start).Seconds(), nil
}

// measure runs the sweep count times and keeps the best wall clock;
// cycle, instruction, allocation and export identities are the same on
// every run (the whole point), so they are taken from the first.
func measure(runs, count int) (Measure, error) {
	var m Measure
	for i := 0; i < count; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		reg, sec, err := sweep(runs)
		if err != nil {
			return m, err
		}
		runtime.ReadMemStats(&after)
		if i == 0 || sec < m.Seconds {
			m.Seconds = sec
		}
		if i == 0 {
			buf, err := reg.Snapshot().JSON()
			if err != nil {
				return m, err
			}
			m.MetricsSHA256 = fmt.Sprintf("%x", sha256.Sum256(buf))
			m.SimCycles = reg.Counter("cpu.cycles", "").Value()
			m.Retired = reg.Counter("cpu.commit.retired", "").Value()
			m.Allocs = after.Mallocs - before.Mallocs
		}
	}
	m.Date = time.Now().UTC().Format("2006-01-02")
	m.GoVersion = goVersion()
	m.CyclesPerSec = float64(m.SimCycles) / m.Seconds
	if m.Retired > 0 {
		m.AllocsPerInstr = float64(m.Allocs) / float64(m.Retired)
	}
	return m, nil
}

func main() {
	runs := flag.Int("runs", 100, "trials per Fig. 5 cell (the paper's sample size)")
	count := flag.Int("count", 3, "timed repetitions; the best wall clock is kept")
	rebase := flag.Bool("rebase", false, "record this build as the new baseline")
	out := flag.String("o", "BENCH_core.json", "output file")
	flag.Parse()

	// One untimed warmup sweep: the first run through a fresh process
	// pays for compiling and caching the kernel images and the first GC
	// growth, which would otherwise land in the first timed run.
	if _, _, err := sweep(*runs); err != nil {
		fmt.Fprintln(os.Stderr, "benchcore:", err)
		os.Exit(1)
	}

	cur, err := measure(*runs, *count)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcore:", err)
		os.Exit(1)
	}

	// The speedup budget tracks the recorded trajectory: the arena/ring
	// overhaul held >= 2x, the bitmap-scoreboard + trial-pool rework
	// holds >= 8x against the same pre-optimization baseline (measured
	// ~10-11x; the margin absorbs machine noise).
	rec := Record{Runs: *runs, Count: *count, SpeedupBudget: 8, AllocRatioBudget: 10}
	if *rebase {
		rec.Baseline = cur
	} else {
		prev, err := os.ReadFile(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcore: no baseline: %v (run with -rebase first)\n", err)
			os.Exit(1)
		}
		var old Record
		if err := json.Unmarshal(prev, &old); err != nil {
			fmt.Fprintf(os.Stderr, "benchcore: %s: %v\n", *out, err)
			os.Exit(1)
		}
		if old.Runs != *runs {
			fmt.Fprintf(os.Stderr, "benchcore: baseline was recorded at -runs %d, rerun with -runs %d or -rebase\n", old.Runs, old.Runs)
			os.Exit(1)
		}
		rec.Baseline = old.Baseline
	}
	rec.Current = cur
	rec.Speedup = rec.Baseline.Seconds / cur.Seconds
	if cur.AllocsPerInstr > 0 {
		rec.AllocRatio = rec.Baseline.AllocsPerInstr / cur.AllocsPerInstr
	}
	rec.MetricsIdentical = rec.Baseline.MetricsSHA256 == cur.MetricsSHA256
	rec.Pass = rec.MetricsIdentical &&
		rec.Speedup >= rec.SpeedupBudget &&
		rec.AllocRatio >= rec.AllocRatioBudget
	if *rebase {
		// A rebase defines the reference point; it passes by identity.
		rec.Speedup, rec.AllocRatio, rec.Pass = 1, 1, true
	}

	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcore:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchcore:", err)
		os.Exit(1)
	}
	fmt.Printf("baseline %.2fs (%.3f allocs/instr), current %.2fs (%.3f allocs/instr): speedup %.2fx, alloc ratio %.1fx, identical=%v, pass=%v -> %s\n",
		rec.Baseline.Seconds, rec.Baseline.AllocsPerInstr, cur.Seconds, cur.AllocsPerInstr,
		rec.Speedup, rec.AllocRatio, rec.MetricsIdentical, rec.Pass, *out)
	if !rec.Pass {
		os.Exit(1)
	}
}

func goVersion() string {
	out, err := exec.Command("go", "env", "GOVERSION").Output()
	if err != nil {
		return "unknown"
	}
	return string(regexp.MustCompile(`\s+`).ReplaceAll(out, nil))
}
