// Case evaluation: run a pattern's mapped/unmapped program pair for N
// trials each through the deterministic parallel runner, then decide
// vulnerability with the repository's standard procedure — Welch's
// t-test cross-checked by the Mann-Whitney U test — plus Cohen's d as
// the effect size. RunMatrix evaluates a whole pattern list; each cell
// is computed exactly as a standalone RunCase with the same options, so
// a matrix cell and the case scenario of the same name are
// byte-identical.

package cachebench

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"

	"vpsec/internal/cpu"
	"vpsec/internal/metrics"
	"vpsec/internal/obs"
	"vpsec/internal/runner"
	"vpsec/internal/stats"
)

// Options configures a benchmark run. The zero value of every field
// means the documented default.
type Options struct {
	// Runs is the number of trials per arm; 0 means 100 (the paper's
	// sample size, shared with the attack harness).
	Runs int
	// Seed is the base RNG seed. Every case derives its own seed space
	// from it and the pattern name, so cases are independent of matrix
	// position and of each other.
	Seed int64
	// Jobs bounds concurrent trials (RunCase) or cases (RunMatrix); 0
	// means all cores. Results are identical at every value.
	Jobs int
	// Noise is the access-latency jitter model; zero means
	// cpu.DefaultNoise, the attack harness's model.
	Noise cpu.Noise
	// Metrics, when non-nil, receives the runner's per-trial counters.
	Metrics *metrics.Registry
	// Trace, when non-nil, records the runner's execution spans.
	Trace *obs.Tracer
}

// withDefaults resolves the documented defaults.
func (o Options) withDefaults() Options {
	if o.Runs == 0 {
		o.Runs = 100
	}
	if o.Noise == (cpu.Noise{}) {
		o.Noise = cpu.DefaultNoise()
	}
	return o
}

// SignificanceLevel is the decision threshold both tests must clear
// for a case to be declared vulnerable — an alias of the evaluation's
// shared threshold (stats.SignificanceLevel, the paper's p < 0.05).
const SignificanceLevel = stats.SignificanceLevel

// CaseResult is one evaluated cell of the vulnerability matrix.
type CaseResult struct {
	// Pattern is the canonical case spelling (Pattern.String).
	Pattern string
	// Paper is the same case in the benchmark paper's notation.
	Paper string
	// Attack names the published attack this cell corresponds to, when
	// it has a name.
	Attack string `json:",omitempty"`
	// Runs and Seed echo the effective per-arm trial count and base
	// seed.
	Runs int
	Seed int64
	// Mapped and Unmapped summarize the step-3 cycle samples of the two
	// arms.
	Mapped   stats.Sample
	Unmapped stats.Sample
	// T is the Welch t-test over mapped vs unmapped; P echoes T.P.
	T stats.TTestResult
	P float64
	// MWp is the Mann-Whitney U cross-check's two-sided p-value.
	MWp float64
	// CohenD is the standardized mean difference (pooled-variance
	// Cohen's d), signed mapped-minus-unmapped.
	CohenD float64
	// Vulnerable reports the verdict: both tests below
	// SignificanceLevel.
	Vulnerable bool
}

// caseSeed derives the case's private seed space: the base seed plus a
// 32-bit FNV-1a digest of the pattern name. Trial i then uses
// caseSeed+4i+1 (unmapped) and caseSeed+4i+3 (mapped), the attack
// harness's trial-seed convention.
func caseSeed(base int64, p Pattern) int64 {
	h := fnv.New64a()
	h.Write([]byte(p.String()))
	return base + int64(uint32(h.Sum64()))
}

// RunCase evaluates one pattern: 2xRuns trials through the
// deterministic runner (mapped and unmapped arms interleaved), then
// the two-test decision. Same options, same result, at every Jobs
// value.
func RunCase(ctx context.Context, p Pattern, opt Options) (CaseResult, error) {
	if err := p.valid(); err != nil {
		return CaseResult{}, err
	}
	opt = opt.withDefaults()
	cs := caseSeed(opt.Seed, p)
	cfg := runner.Config{Jobs: opt.Jobs, Metrics: opt.Metrics, Trace: opt.Trace}
	cycles, err := runner.Map(ctx, cfg, 2*opt.Runs,
		func(ctx context.Context, k int, reg *metrics.Registry) (float64, error) {
			i := k / 2
			mapped := k%2 == 0
			seed := cs + 4*int64(i) + 1
			if mapped {
				seed += 2
			}
			c, err := p.Trial(mapped, seed, opt.Noise)
			return float64(c), err
		})
	if err != nil {
		return CaseResult{}, err
	}
	mapped := make([]float64, 0, opt.Runs)
	unmapped := make([]float64, 0, opt.Runs)
	for k, c := range cycles {
		if k%2 == 0 {
			mapped = append(mapped, c)
		} else {
			unmapped = append(unmapped, c)
		}
	}
	t, err := stats.WelchTTest(mapped, unmapped)
	if err != nil {
		return CaseResult{}, fmt.Errorf("cachebench: %s: %v", p, err)
	}
	mw, err := stats.MannWhitneyU(mapped, unmapped)
	if err != nil {
		return CaseResult{}, fmt.Errorf("cachebench: %s: %v", p, err)
	}
	sm, su := stats.Summarize(mapped), stats.Summarize(unmapped)
	return CaseResult{
		Pattern:    p.String(),
		Paper:      p.Paper(),
		Attack:     p.Attack(),
		Runs:       opt.Runs,
		Seed:       opt.Seed,
		Mapped:     sm,
		Unmapped:   su,
		T:          t,
		P:          t.P,
		MWp:        mw.P,
		CohenD:     cohenD(sm, su),
		Vulnerable: t.P < SignificanceLevel && mw.P < SignificanceLevel,
	}, nil
}

// cohenD is the pooled-variance standardized mean difference. Two
// constant samples have no scale to standardize by: equal means report
// 0, distinct means report ±stats.TMax (perfect separation), matching
// the t-test's zero-variance convention.
func cohenD(a, b stats.Sample) float64 {
	diff := a.Mean - b.Mean
	pooled := (float64(a.N-1)*a.Variance + float64(b.N-1)*b.Variance) / float64(a.N+b.N-2)
	if pooled == 0 {
		if diff == 0 {
			return 0
		}
		return math.Copysign(stats.TMax, diff)
	}
	return diff / math.Sqrt(pooled)
}

// MatrixResult is the vulnerability matrix: every evaluated case in
// input order, the vulnerable count, and the model-limitation
// footnotes the report carries.
type MatrixResult struct {
	// Runs and Seed echo the effective options.
	Runs int
	Seed int64
	// Total is the number of evaluated cases; Vulnerable counts the
	// cells both tests flagged.
	Total      int
	Vulnerable int
	// Cases holds every cell, in the order the patterns were given.
	Cases []CaseResult
	// Footnotes are the model limitations (Limitations) the verdicts
	// must be read under.
	Footnotes []string
}

// RunMatrix evaluates the given patterns (nil means the whole Family)
// and assembles the vulnerability matrix. Concurrency is across cases;
// each cell runs its trials sequentially with the same derived seeds a
// standalone RunCase would use, so cells are byte-identical to their
// case scenarios and to every other Jobs value.
func RunMatrix(ctx context.Context, pats []Pattern, opt Options) (*MatrixResult, error) {
	if pats == nil {
		pats = Family()
	}
	opt = opt.withDefaults()
	cfg := runner.Config{Jobs: opt.Jobs, Metrics: opt.Metrics, Trace: opt.Trace}
	inner := opt
	inner.Jobs = 1
	inner.Metrics = nil
	inner.Trace = nil
	cases, err := runner.Map(ctx, cfg, len(pats),
		func(ctx context.Context, i int, reg *metrics.Registry) (CaseResult, error) {
			o := inner
			o.Metrics = reg
			return RunCase(ctx, pats[i], o)
		})
	if err != nil {
		return nil, err
	}
	m := &MatrixResult{
		Runs:      opt.Runs,
		Seed:      opt.Seed,
		Total:     len(cases),
		Cases:     cases,
		Footnotes: Limitations(),
	}
	for _, c := range cases {
		if c.Vulnerable {
			m.Vulnerable++
		}
	}
	return m, nil
}
