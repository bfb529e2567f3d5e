// Package defense evaluates the paper's defense mechanisms (Sec. VI)
// against the attack taxonomy. The mechanisms themselves — A-type,
// R-type, D-type delay, flush-on-switch, value recomputation, context
// isolation — their catalog and the canonical "A+R(5)+D" stack syntax
// live in internal/attacks; this package names stacks of them as
// Strategies (strategy.go) and drives the attack harness across those
// configurations to reproduce the Sec. VI-B results: the R-type window
// sweeps whose minimal secure sizes are 3 for Train+Test and 9 for
// Test+Hit, and the per-attack defense matrix — now with per-cell cost
// (mean trial cycles and slowdown vs the undefended baseline) so
// security can be weighed against performance.
package defense

import (
	"fmt"
	"slices"

	"vpsec/internal/attacks"
	"vpsec/internal/core"
	"vpsec/internal/stats"
)

// medianCase evaluates one case over three disjoint seed ranges and
// returns the median p-value, success rate and mean trial cycles. A
// single Welch test has a 5% false-positive rate under the null
// hypothesis by construction (p is uniform when the defense works), so
// sweeping many secure cells would regularly mislabel one; the median
// of three keeps real attacks (p ≈ 0) detected while dropping the null
// false-positive rate below 1%.
func medianCase(cat core.Category, opt attacks.Options) (p, success, cyc float64, err error) {
	var ps, ss, cs []float64
	for i := int64(0); i < 3; i++ {
		o := opt
		o.Seed = opt.Seed + i*1_000_003
		r, err := attacks.Run(cat, o)
		if err != nil {
			return 0, 0, 0, err
		}
		ps = append(ps, r.P)
		ss = append(ss, r.SuccessRate)
		cs = append(cs, r.MeanCyc)
	}
	return medianOf(ps), medianOf(ss), medianOf(cs), nil
}

// medianOf returns the median of xs (the mean of the middle pair for
// even lengths), sorting in place; 0 for an empty slice.
func medianOf(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// SweepPoint is one R-type window size evaluated against an attack.
type SweepPoint struct {
	Window      int
	P           float64
	SuccessRate float64
}

// Effective reports whether the attack still works at this window.
func (s SweepPoint) Effective() bool { return s.P < stats.SignificanceLevel }

// SweepRWindow evaluates windows 1..maxWindow of the R-type defense
// against one attack category and channel. Any R-type mechanism
// already in base's stack is replaced by the swept window; every other
// mechanism is preserved.
func SweepRWindow(cat core.Category, maxWindow int, base attacks.Options) ([]SweepPoint, error) {
	if maxWindow < 1 {
		return nil, fmt.Errorf("defense: maxWindow %d < 1", maxWindow)
	}
	var out []SweepPoint
	for w := 1; w <= maxWindow; w++ {
		opt := base
		opt.Defense = base.Defense.WithRandomWindow(w)
		p, s, _, err := medianCase(cat, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{Window: w, P: p, SuccessRate: s})
	}
	return out, nil
}

// MinimalSecureWindow returns the smallest window from which the
// attack stays ineffective for every larger window in the sweep
// ("minimal size for this type of attack to guarantee security",
// Sec. VI-B), or 0 if no such window exists in the sweep.
func MinimalSecureWindow(points []SweepPoint) int {
	min := 0
	for _, p := range points {
		if p.Effective() {
			min = 0
			continue
		}
		if min == 0 {
			min = p.Window
		}
	}
	return min
}

// MatrixCell is one (category, channel, strategy) evaluation.
type MatrixCell struct {
	Category core.Category
	Channel  core.Channel
	Strategy string
	P        float64
	Defended bool

	// MeanCyc is the median (over seed ranges) mean simulated cycles
	// per trial — the cost side of the security-vs-slowdown trade-off.
	MeanCyc float64

	// Slowdown is MeanCyc relative to the "none" strategy's cell for
	// the same category and channel; 0 when the matrix had no baseline
	// to compare against.
	Slowdown float64
}

// Matrix evaluates every attack category and supported channel against
// every strategy, reproducing the defense-coverage discussion of
// Sec. VI-B. When the strategy set includes "none", every cell's
// Slowdown is filled in against that baseline.
func Matrix(base attacks.Options, strategies []Strategy) ([]MatrixCell, error) {
	if strategies == nil {
		strategies = Strategies()
	}
	var out []MatrixCell
	for _, cat := range core.Categories() {
		for _, ch := range []core.Channel{core.TimingWindow, core.Persistent} {
			supported := false
			for _, c := range core.ChannelsFor(cat) {
				if c == ch {
					supported = true
				}
			}
			if !supported {
				continue
			}
			baseCyc := 0.0
			group := len(out)
			for _, s := range strategies {
				opt := base
				opt.Channel = ch
				opt.Defense = s.Stack
				p, _, cyc, err := medianCase(cat, opt)
				if err != nil {
					return nil, err
				}
				if s.Name == "none" {
					baseCyc = cyc
				}
				out = append(out, MatrixCell{
					Category: cat,
					Channel:  ch,
					Strategy: s.Name,
					P:        p,
					Defended: p >= stats.SignificanceLevel,
					MeanCyc:  cyc,
				})
			}
			if baseCyc > 0 {
				for i := group; i < len(out); i++ {
					out[i].Slowdown = out[i].MeanCyc / baseCyc
				}
			}
		}
	}
	return out, nil
}

// AllDefended reports whether the combined strategy (the legacy
// catalog's last entry, A+R+D) defends every cell it was evaluated on
// — Sec. VI-B: "when all the A-type, D-type, and R-type defenses are
// combined, all attacks we have considered can be defended".
func AllDefended(cells []MatrixCell, strategy string) bool {
	any := false
	for _, c := range cells {
		if c.Strategy != strategy {
			continue
		}
		any = true
		if !c.Defended {
			return false
		}
	}
	return any
}
