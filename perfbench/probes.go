package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vpsec/internal/asm"
	"vpsec/internal/cachebench"
	"vpsec/internal/cpu"
	"vpsec/internal/isa"
	"vpsec/internal/mem"
	"vpsec/internal/metrics"
	"vpsec/internal/predictor"
	"vpsec/internal/runner"
	"vpsec/internal/scenario"
	"vpsec/internal/server"
	"vpsec/internal/stats"
)

// probe times calls into one layer's public function on inputs shaped
// like the workloads'. Its value is the median over probeBatches
// batches of the time per call, in the probe's unit.
type probe struct {
	name, unit string
	// batch makes one timed batch and returns the time it took and
	// the number of units (calls, or simulated cycles) it covered.
	batch func() (time.Duration, int, error)
}

const probeBatches = 7

// runProbes measures every probe and returns its value by name.
func runProbes(ctx context.Context, root string) (map[string]metric, error) {
	out := make(map[string]metric)
	for _, p := range probes(ctx, root) {
		per := make([]float64, 0, probeBatches)
		for b := 0; b < probeBatches; b++ {
			d, n, err := p.batch()
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			per = append(per, float64(d.Nanoseconds())/float64(n))
		}
		v := median(per)
		if p.unit == "us" {
			v /= 1e3
		}
		out[p.name] = metric{v, p.unit}
	}
	return out, nil
}

// loop times n calls of fn, stopping at the first error.
func loop(n int, fn func(i int) error) (time.Duration, int, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(t0), n, nil
}

// discard adapts a call whose result the probe does not need.
func discard[T any](_ T, err error) error { return err }

// flushReload is the cachebench case the program-building probes use:
// the first published attack of the family.
var flushReload = cachebench.KnownAttacks()[0].Pattern

func probes(ctx context.Context, root string) []probe {
	// An L1-sized working set twice over, so lookups split between hits
	// and misses the way a trial's probes do.
	l1 := mem.DefaultHierarchy().L1
	lines := 2 * l1.Config().Sets * l1.Config().Ways
	addrs := make([]uint64, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(lines)) * l1.Config().LineBytes
	}
	for _, a := range addrs[:lines/2] {
		l1.Insert(a)
	}
	// A hierarchy walk over an attacker line, its eviction set and a
	// victim line beyond the L2, with flushes between rounds — the
	// access mix of a cachebench trial.
	hier := mem.DefaultHierarchy()
	const setStride = 64 * 512 // one L2-set-congruent stride
	walk := []uint64{0x40000, 0x80040}
	for w := 1; w <= 8; w++ {
		walk = append(walk, 0x40000+uint64(w)*setStride)
	}

	samples := func(seed int64, shift float64) []float64 {
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = 150 + shift + float64(r.Intn(24))
		}
		return xs
	}
	mapped, unmapped := samples(1, 0), samples(2, 6)

	return []probe{
		{"mem.cache_lookup_ns", "ns", func() (time.Duration, int, error) {
			return loop(1<<20, func(i int) error {
				l1.Lookup(addrs[i&4095])
				return nil
			})
		}},
		{"mem.hier_access_ns", "ns", func() (time.Duration, int, error) {
			return loop(1<<18, func(i int) error {
				if i%len(walk) == 0 {
					hier.Flush(walk[1])
				}
				hier.Access(walk[i%len(walk)], true)
				return nil
			})
		}},
		predictorProbe("pred.lvp_ns", "lvp"),
		predictorProbe("pred.vtage_ns", "vtage"),
		cpuProbe(root),
		{"asm.assemble_us", "us", func() (time.Duration, int, error) {
			src := flushReload.Source(true)
			return loop(200, func(int) error { return discard(asm.Assemble("probe.vasm", src)) })
		}},
		{"isa.compile_us", "us", func() (time.Duration, int, error) {
			prog, err := asm.Assemble("probe.vasm", flushReload.Source(true))
			if err != nil {
				return 0, 0, err
			}
			return loop(2000, func(int) error { return discard(isa.Compile(prog)) })
		}},
		{"stats.welch_us", "us", func() (time.Duration, int, error) {
			return loop(5000, func(int) error { return discard(stats.WelchTTest(mapped, unmapped)) })
		}},
		{"stats.mannwhitney_us", "us", func() (time.Duration, int, error) {
			return loop(1000, func(int) error { return discard(stats.MannWhitneyU(mapped, unmapped)) })
		}},
		{"runner.item_ns", "ns", func() (time.Duration, int, error) {
			const items = 20000
			t0 := time.Now()
			_, err := runner.Map(ctx, runner.Config{Jobs: runtime.NumCPU()}, items,
				func(context.Context, int, *metrics.Registry) (int, error) { return 0, nil })
			return time.Since(t0), items, err
		}},
		{"scenario.hash_us", "us", func() (time.Duration, int, error) {
			s, ok := scenario.Lookup("cachebench-" + flushReload.String())
			if !ok {
				return 0, 0, fmt.Errorf("no cachebench-%s scenario", flushReload)
			}
			return loop(2000, func(int) error {
				_ = s.Hash()
				return nil
			})
		}},
		canonicalProbe(ctx),
		hitProbe(ctx),
	}
}

// predictorProbe times one Predict and its Update on a table trained by
// a few loads with stable values and one whose value changes, so the
// loop mixes confident hits, misses and mispredictions.
func predictorProbe(name, kind string) probe {
	return probe{name, "ns", func() (time.Duration, int, error) {
		p, err := predictor.New(kind, predictor.FactoryConfig{Confidence: 4})
		if err != nil {
			return 0, 0, err
		}
		return loop(1<<17, func(i int) error {
			pc := uint64(0x400 + 4*(i&15))
			c := predictor.Context{PC: pc, Addr: 0x10000 + pc*16}
			actual := pc
			if i&15 == 0 {
				actual = uint64(i)
			}
			p.Update(c, actual, p.Predict(c))
			return nil
		})
	}}
}

// cpuProbe times cpu.Machine.Run on the pointer-chase example per
// simulated cycle. One machine runs the program repeatedly, a fresh
// process each time; the program flushes every node it visits, so
// each run does the same work.
func cpuProbe(root string) probe {
	return probe{"cpu.run_ns_per_cycle", "ns", func() (time.Duration, int, error) {
		path := filepath.Join(root, "examples", "progs", "pointer-chase.vasm")
		src, err := os.ReadFile(path)
		if err != nil {
			return 0, 0, err
		}
		prog, err := asm.Assemble(path, string(src))
		if err != nil {
			return 0, 0, err
		}
		pred, err := predictor.New("lvp", predictor.FactoryConfig{Confidence: 4})
		if err != nil {
			return 0, 0, err
		}
		m, err := cpu.NewMachine(cpu.Config{}, nil, pred, rand.New(rand.NewSource(1)))
		if err != nil {
			return 0, 0, err
		}
		var total time.Duration
		cycles := 0
		for r := 0; r < 200; r++ {
			proc, err := m.NewProcess(1, prog, 0)
			if err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			res, err := m.Run(proc)
			total += time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			cycles += int(res.Cycles)
		}
		return total, cycles, nil
	}}
}

// canonicalProbe times Result.CanonicalJSON on a cachebench case result,
// the bytes a cold server job stores.
func canonicalProbe(ctx context.Context) probe {
	var res *scenario.Result
	return probe{"scenario.canonical_json_us", "us", func() (time.Duration, int, error) {
		if res == nil {
			s, _ := scenario.Lookup("cachebench-" + flushReload.String())
			r, err := scenario.Execute(ctx, s)
			if err != nil {
				return 0, 0, err
			}
			res = r
		}
		return loop(500, func(int) error { return discard(res.CanonicalJSON()) })
	}}
}

// hitProbe times one client's hot request round trip to a loopback
// server whose store already holds the result.
func hitProbe(ctx context.Context) probe {
	return probe{"server.hit_rtt_us", "us", func() (time.Duration, int, error) {
		s, _ := scenario.Lookup("cachebench-" + flushReload.String())
		body, err := submitBody(s)
		if err != nil {
			return 0, 0, err
		}
		sut, err := startServer(false)
		if err != nil {
			return 0, 0, err
		}
		defer sut.stop()
		if _, err := sut.submit(ctx, body, server.CacheMiss); err != nil {
			return 0, 0, err
		}
		const n = 300
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := sut.submit(ctx, body, server.CacheHit); err != nil {
				return 0, 0, err
			}
		}
		d := time.Since(t0)
		return d, n, sut.stop()
	}}
}
