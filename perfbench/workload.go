package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"time"

	"vpsec/internal/cachebench"
	"vpsec/internal/metrics"
	"vpsec/internal/obs"
	"vpsec/internal/scenario"
)

// defaultSeed is the workload seed at which the pinned digests and the
// cachebench verdict count apply: it leaves every registry spec's own
// seed unchanged.
const defaultSeed = 1

// mode selects what a pass attaches to the specs it runs.
type mode int

const (
	plain   mode = iota // nothing: the timed, end-to-end pass
	metered             // a metrics registry only: the reference pass
	traced              // a metrics registry and a tracer: the per-layer pass
)

// workload is one benchmark workload over its generated inputs.
type workload interface {
	// setup prepares and warms everything a pass needs. It is the work
	// setup_s times, in a fresh process.
	setup(ctx context.Context) error
	// run makes one pass over the inputs.
	run(ctx context.Context, m mode) (*pass, error)
}

// pass is what one pass over a workload's inputs produced.
type pass struct {
	wall     time.Duration   // time inside the timed calls
	ops      []time.Duration // latency of each call
	coldN    int             // serve passes: the leading ops that were cold
	out      [][]byte        // result bytes, in registry order
	failed   int             // calls that errored or answered wrongly
	work     float64         // units of work_per_s done in workTime
	workName string          // what work_per_s counts, as the breakdown names it
	workTime time.Duration
	peakHeap uint64 // bytes

	reg    *metrics.Registry // metered and traced passes
	layers *layerSink        // traced passes
	server *serverLayers     // traced serve passes
}

// inputs are a workload's generated inputs: registry specs with the
// seed offset applied, in registry order, and the order to run them in.
type inputs struct {
	seed  int64
	specs []scenario.Spec
	order []int // indices into specs
}

// makeInputs offsets every spec's Seed by seed-defaultSeed and draws the
// execution order from seed.
func makeInputs(specs []scenario.Spec, seed int64, jobs int) inputs {
	in := inputs{seed: seed, specs: make([]scenario.Spec, len(specs))}
	for i, s := range specs {
		s.Seed += seed - defaultSeed
		s.Jobs = jobs
		in.specs[i] = s
	}
	in.order = newRand(seed).Perm(len(specs))
	return in
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// registrySpecs returns the registered specs whose kind keep accepts,
// in registry order.
func registrySpecs(keep func(scenario.Kind) bool) []scenario.Spec {
	var out []scenario.Spec
	for _, s := range scenario.All() {
		if keep(s.Kind) {
			out = append(out, s)
		}
	}
	return out
}

// paperSpecs are the paper-reproduction scenarios: every registry
// entry outside the cache-vulnerability family.
func paperSpecs() []scenario.Spec {
	return registrySpecs(func(k scenario.Kind) bool {
		return k != scenario.KindCacheBench && k != scenario.KindCacheMatrix
	})
}

// cacheMatrixSpecs is the full 976-case cache-vulnerability matrix.
func cacheMatrixSpecs() []scenario.Spec {
	s, ok := scenario.Lookup("cachebench-matrix-full")
	if !ok {
		return nil
	}
	return []scenario.Spec{s}
}

// sweep runs its specs one after another through scenario.Execute on
// one goroutine; each spec's Jobs sets its own trial fan-out.
type sweep struct {
	in inputs
	// countInstr makes work_per_s simulated retired instructions per
	// second, counted on the reference pass; otherwise it is cases
	// judged per second.
	countInstr bool
	retired    uint64
}

// warmupRuns is the trial count of the set-up pass: enough for every
// kind to run all of its code paths, small next to a real pass.
const warmupRuns = 4

// setup executes every spec once at warmupRuns trials, which fills the
// program's lazily built kernel images and pooled machines.
func (w *sweep) setup(ctx context.Context) error {
	for _, i := range w.in.order {
		s := w.in.specs[i]
		s.Runs = warmupRuns
		if _, err := scenario.Execute(ctx, s); err != nil {
			return fmt.Errorf("warm-up %s: %w", s.Name, err)
		}
	}
	return nil
}

func (w *sweep) run(ctx context.Context, m mode) (*pass, error) {
	p := &pass{out: make([][]byte, len(w.in.specs))}
	var tr *obs.Tracer
	if m == traced {
		p.layers = newLayerSink()
		tr = obs.New(p.layers)
	}
	if m != plain {
		p.reg = metrics.NewRegistry()
	}
	cases := 0
	heap := sampleHeap()
	for _, i := range w.in.order {
		s := w.in.specs[i]
		s.Trace, s.Metrics = tr, p.reg
		t0 := time.Now()
		res, err := scenario.Execute(ctx, s)
		d := time.Since(t0)
		p.wall += d
		p.ops = append(p.ops, d)
		if err == nil {
			p.out[i], err = res.CanonicalJSON()
		}
		if err == nil {
			err = checkResult(res, w.in.seed)
		}
		if err != nil {
			p.failed++
			warnf("%s: %v", s.Name, err)
			continue
		}
		if res.CacheBench != nil {
			cases += res.CacheBench.Total
		}
	}
	p.peakHeap = heap.stop()
	if err := tr.Close(); err != nil {
		return nil, err
	}
	if m != plain && w.countInstr {
		w.retired = p.reg.Counter("cpu.commit.retired", "").Value()
	}
	p.workTime = p.wall
	p.work, p.workName = float64(cases), "cases_per_s"
	if w.countInstr {
		p.work, p.workName = float64(w.retired), "sim_instr_per_s"
	}
	return p, nil
}

// vulnerableAtDefaultSeed is the number of cachebench-matrix-full cases
// the registry's own seed finds vulnerable.
const vulnerableAtDefaultSeed = 170

// checkResult applies the verdict checks that hold at the default seed:
// the full cache matrix finds its pinned number of vulnerable cases,
// every published attack among them.
func checkResult(res *scenario.Result, seed int64) error {
	m := res.CacheBench
	if seed != defaultSeed || res.Spec.Name != "cachebench-matrix-full" || m == nil {
		return nil
	}
	if m.Vulnerable != vulnerableAtDefaultSeed {
		return fmt.Errorf("%d of %d cases vulnerable, want %d", m.Vulnerable, m.Total, vulnerableAtDefaultSeed)
	}
	vulnerable := make(map[string]bool, len(m.Cases))
	for _, c := range m.Cases {
		vulnerable[c.Pattern] = c.Vulnerable
	}
	for _, k := range cachebench.KnownAttacks() {
		if !vulnerable[k.Pattern.String()] {
			return fmt.Errorf("known attack %s (%s) not found vulnerable", k.Name, k.Pattern)
		}
	}
	return nil
}

// heapSampler records the peak of the Go heap's object bytes while a
// pass runs.
type heapSampler struct {
	quit, done chan struct{}
	peak       uint64
}

func sampleHeap() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	<-h.done
	return h.peak
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile by linear interpolation between closest ranks, q in [0,1].
func percentile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// settle collects the garbage of the previous pass so it is not billed
// to the next one.
func settle() { runtime.GC() }
