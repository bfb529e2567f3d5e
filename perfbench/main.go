package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// pinnedDigests maps each workload to the SHA-256 of its results at the
// default seed (see digest).
//
//go:embed digests.json
var pinnedDigests []byte

func main() {
	name := flag.String("workload", "", "workload: paper-sweep, cachebench-full or serve-cold-hot")
	seed := flag.Int64("seed", defaultSeed, "workload seed: permutes the run order and offsets every spec's seed")
	seconds := flag.Float64("seconds", 20, "how long the timed passes run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from traced passes")
	setupOnly := flag.Bool("setup-only", false, "set the workload up and exit (how setup_s is timed)")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *setupOnly, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace, setupOnly bool, stdout io.Writer) error {
	ctx := context.Background()
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	if setupOnly {
		return w.setup(ctx)
	}
	cfg := config{
		workload:  name,
		seed:      seed,
		seconds:   time.Duration(seconds * float64(time.Second)),
		trace:     trace,
		root:      ".",
		setupRuns: setupRuns,
		minPasses: minPasses,
	}
	if seed == defaultSeed {
		var pins map[string]string
		if err := json.Unmarshal(pinnedDigests, &pins); err != nil {
			return fmt.Errorf("digests.json: %w", err)
		}
		cfg.pin = pins[name]
	}
	res, lines, err := bench(ctx, cfg, w)
	if err != nil {
		return err
	}
	for _, l := range lines {
		fmt.Fprintf(stdout, "%-34s %16.6g %s\n", l.name, l.value, l.unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// newWorkload generates the named workload's inputs from seed.
func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "paper-sweep":
		return &sweep{in: makeInputs(paperSpecs(), seed, 1), countInstr: true}, nil
	case "cachebench-full":
		return &sweep{in: makeInputs(cacheMatrixSpecs(), seed, runtime.NumCPU())}, nil
	case "serve-cold-hot":
		return newServe(serveSpecs(), seed)
	}
	return nil, fmt.Errorf("unknown workload %q (paper-sweep, cachebench-full, serve-cold-hot)", name)
}

const (
	// setupRuns is how many fresh processes time the set-up.
	setupRuns = 7
	// minPasses is the fewest timed passes a run makes, whatever
	// --seconds says, so the medians have something to choose from.
	minPasses = 3
)

type config struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	root      string // repository root, for the example programs
	setupRuns int    // 0 times one in-process set-up instead
	minPasses int
	pin       string // expected digest; empty skips the check
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// line is one row of the human-readable breakdown printed before the
// result line.
type line struct {
	name  string
	value float64
	unit  string
}

// checker counts operations and failed checks.
type checker struct {
	attempted, failed int
}

func (c *checker) add(p *pass) {
	c.attempted += len(p.ops)
	c.failed += p.failed
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	warnf(format, args...)
}

// same checks that two passes produced identical result bytes.
func (c *checker) same(what string, ref, p *pass) {
	for i := range ref.out {
		if !bytes.Equal(ref.out[i], p.out[i]) {
			c.fail("%s: result %d differs from the reference pass", what, i)
			return
		}
	}
}

// bench runs the configured measurement of w and returns the result
// line and the breakdown.
func bench(ctx context.Context, cfg config, w workload) (*result, []line, error) {
	if cfg.trace {
		return benchLayers(ctx, cfg, w)
	}
	setupS, err := timeSetup(ctx, cfg, w)
	if err != nil {
		return nil, nil, err
	}
	if cfg.setupRuns > 0 {
		if err := w.setup(ctx); err != nil {
			return nil, nil, err
		}
	}
	var chk checker
	settle()
	ref, err := w.run(ctx, metered)
	if err != nil {
		return nil, nil, err
	}
	chk.add(ref)
	chk.digest(cfg.pin, ref)

	var passes []*pass
	for win := newWindow(cfg.seconds); win.more(len(passes), cfg.minPasses); {
		settle()
		p, err := w.run(ctx, plain)
		if err != nil {
			return nil, nil, err
		}
		chk.add(p)
		chk.same("untraced pass", ref, p)
		p.out = nil // checked; keeping it would grow the heap the next pass measures
		passes = append(passes, p)
	}
	m, lines := endToEnd(passes, setupS)
	lines = append(lines, line{"err_frac", float64(chk.failed) / float64(chk.attempted), "fraction"})
	return chk.result(m), lines, nil
}

// window is the measuring window of one run: rounds of passes start
// while the next round, taking as long as the last, still ends inside
// it, so a run measures for at most its --seconds past the minimum.
type window struct {
	end, last time.Time
}

func newWindow(d time.Duration) *window {
	now := time.Now()
	return &window{end: now.Add(d), last: now}
}

// more reports whether to start another round after done rounds.
func (w *window) more(done, min int) bool {
	now := time.Now()
	round := now.Sub(w.last)
	w.last = now
	return done < min || !now.Add(round).After(w.end)
}

// digest checks the reference pass against the pinned digest.
func (c *checker) digest(pin string, ref *pass) {
	got := digest(ref.out)
	if pin != "" && got != pin {
		c.fail("result digest %s, pinned %s", got, pin)
		return
	}
	warnf("result digest %s", got)
}

func (c *checker) result(m map[string]metric) *result {
	return &result{
		Correct:   c.failed == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   m,
	}
}

// digest is the SHA-256 over the compacted result JSON of every input,
// in registry order. Compacting keeps it independent of how a layer
// indents the bytes it hands back.
func digest(out [][]byte) string {
	h := sha256.New()
	var buf bytes.Buffer
	for _, b := range out {
		buf.Reset()
		if err := json.Compact(&buf, b); err != nil {
			buf.Write(b)
		}
		h.Write(buf.Bytes())
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// timeSetup returns the median set-up time over cfg.setupRuns fresh
// processes, each running this binary with --setup-only: process
// start, package initialization (the scenario registry), input
// generation, server start and warm-up all count. With setupRuns 0 it
// times one in-process set-up, which is how tests run it.
func timeSetup(ctx context.Context, cfg config, w workload) (float64, error) {
	if cfg.setupRuns == 0 {
		t0 := time.Now()
		err := w.setup(ctx)
		return time.Since(t0).Seconds(), err
	}
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < cfg.setupRuns; i++ {
		cmd := exec.CommandContext(ctx, exe, "--workload", cfg.workload,
			"--seed", strconv.FormatInt(cfg.seed, 10), "--setup-only")
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up process: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// endToEnd computes the end-to-end metrics from the timed passes.
func endToEnd(passes []*pass, setupS float64) (map[string]metric, []line) {
	var walls, rates, heaps, ops []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, p.work/p.workTime.Seconds())
		heaps = append(heaps, float64(p.peakHeap)/(1<<20))
		for _, d := range p.ops {
			ops = append(ops, d.Seconds()*1e3)
		}
	}
	m := map[string]metric{
		"setup_s":      {setupS, "s"},
		"wall_s":       {median(walls), "s"},
		"work_per_s":   {median(rates), "1/s"},
		"peak_heap_mb": {median(heaps), "MB"},
	}
	lines := []line{
		{"passes", float64(len(passes)), "count"},
		{passes[0].workName, median(rates), "1/s"},
		{"ops", float64(len(ops)), "count"},
		{"op_p50_ms", median(ops), "ms"},
		{"op_p90_ms", percentile(ops, 0.90), "ms"},
	}
	if passes[0].coldN > 0 {
		var cold, hot []float64
		for _, p := range passes {
			for k, d := range p.ops {
				if k < p.coldN {
					cold = append(cold, d.Seconds()*1e3)
				} else {
					hot = append(hot, d.Seconds()*1e6)
				}
			}
		}
		lines = append(lines,
			line{"cold_p50_ms", median(cold), "ms"},
			line{"hot_p50_us", median(hot), "us"},
			line{"hot_p99_us", percentile(hot, 0.99), "us"})
	}
	return m, lines
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
