// Command vpdefense reproduces the Sec. VI defense evaluation: R-type
// window-size sweeps (minimal secure windows: 3 for Train+Test, 9 for
// Test+Hit) and the per-attack defense-coverage matrix. Both modes
// compile to internal/scenario specs and run through scenario.Execute.
//
//	vpdefense -sweep                 # window sweeps for Train+Test and Test+Hit
//	vpdefense -matrix                # full strategy x attack matrix
//	vpdefense -matrix -slowdown      # extended matrix, priced by slowdown
//	vpdefense -sweep -attack "Fill Up" -maxwindow 6
//	vpdefense -scenario defense-window-test-hit
//	vpdefense -list-strategies       # mechanism catalog and named strategies
//	vpdefense -describe-strategy "A+R(5)+recompute"
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"vpsec/cmd/internal/scencli"
	"vpsec/internal/attacks"
	"vpsec/internal/defense"
	"vpsec/internal/metrics"
	"vpsec/internal/scenario"
)

func main() {
	var (
		doSweep    = flag.Bool("sweep", false, "run R-type window sweeps")
		doMatrix   = flag.Bool("matrix", false, "run the defense matrix")
		slowdown   = flag.Bool("slowdown", false, "extend the matrix with recompute/isolate and price every strategy by its slowdown")
		attackName = flag.String("attack", "", "restrict the sweep to one category")
		maxWindow  = flag.Int("maxwindow", 10, "largest R-type window to sweep")
		runs       = flag.Int("runs", scenario.DefaultDefenseRuns(), "trials per case")
		jobs       = flag.Int("jobs", scenario.DefaultJobs(), "concurrent trials (1 = sequential legacy path; results are identical at any value)")
		seed       = flag.Int64("seed", scenario.Defaults().Seed, "base RNG seed")

		listStrategies = flag.Bool("list-strategies", false, "print the mechanism catalog and named strategies, then exit")
		describe       = flag.String("describe-strategy", "", "print the mechanisms a strategy composes, then exit")

		metricsPath  = flag.String("metrics", "", "write a metrics snapshot (JSON) to this file")
		manifestPath = flag.String("manifest", "", "write a run manifest (config, seed, metrics) to this file")
	)
	scen := scencli.Register()
	flag.Parse()

	if *listStrategies {
		printStrategies(os.Stdout)
		return
	}
	if *describe != "" {
		if err := describeStrategy(os.Stdout, *describe); err != nil {
			fmt.Fprintln(os.Stderr, "vpdefense:", err)
			os.Exit(1)
		}
		return
	}

	tracer, closeTrace, err := scen.Observe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpdefense:", err)
		os.Exit(1)
	}
	defer func() {
		if err := closeTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "vpdefense:", err)
		}
	}()

	var reg *metrics.Registry
	if *metricsPath != "" || *manifestPath != "" {
		reg = metrics.NewRegistry()
	}
	start := time.Now()
	writeObservability := func() {
		if reg == nil {
			return
		}
		if *metricsPath != "" {
			if err := metrics.WriteFile(reg, *metricsPath, "json"); err != nil {
				fmt.Fprintln(os.Stderr, "vpdefense:", err)
				os.Exit(1)
			}
		}
		if *manifestPath != "" {
			man := metrics.NewManifest("vpdefense", *seed)
			man.Config["sweep"] = strconv.FormatBool(*doSweep)
			man.Config["matrix"] = strconv.FormatBool(*doMatrix)
			man.Config["maxwindow"] = strconv.Itoa(*maxWindow)
			man.Config["runs"] = strconv.Itoa(*runs)
			man.Config["jobs"] = strconv.Itoa(*jobs)
			man.Finish(reg, start)
			if err := man.WriteFile(*manifestPath); err != nil {
				fmt.Fprintln(os.Stderr, "vpdefense:", err)
				os.Exit(1)
			}
		}
	}

	_, handled, err := scen.Handle(context.Background(), scencli.Options{
		Tool:  "vpdefense",
		Infra: []string{"jobs", "metrics", "manifest"},
		Trace: tracer,
		Mutate: func(s *scenario.Spec) {
			if scencli.Set("jobs") {
				s.Jobs = *jobs
			}
			s.Metrics = reg
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpdefense:", err)
		os.Exit(1)
	}
	if handled {
		writeObservability()
		return
	}

	if !*doSweep && !*doMatrix {
		*doSweep, *doMatrix = true, true
	}

	run := func(spec scenario.Spec) {
		spec.Runs = *runs
		spec.Seed = *seed
		spec.Jobs = *jobs
		spec.Metrics = reg
		spec.Trace = tracer
		res, err := scenario.Execute(context.Background(), spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpdefense:", err)
			os.Exit(1)
		}
		if err := res.Render(os.Stdout, scenario.RenderOptions{}); err != nil {
			fmt.Fprintln(os.Stderr, "vpdefense:", err)
			os.Exit(1)
		}
	}

	if *doSweep {
		run(scenario.Spec{
			Kind:      scenario.KindDefenseSweep,
			Category:  *attackName, // empty: the paper's Train+Test and Test+Hit pair
			MaxWindow: *maxWindow,
		})
	}
	if *doMatrix {
		spec := scenario.Spec{Kind: scenario.KindDefenseMatrix}
		if *slowdown {
			spec.Slowdown = true
			for _, s := range defense.Strategies() {
				spec.Strategies = append(spec.Strategies, s.Name)
			}
			for _, s := range defense.ExtendedStrategies() {
				spec.Strategies = append(spec.Strategies, s.Name)
			}
		}
		run(spec)
	}
	writeObservability()
}

// printStrategies renders the mechanism catalog and the named strategy
// tables.
func printStrategies(w io.Writer) {
	fmt.Fprintln(w, "Mechanisms (compose with '+', e.g. -describe-strategy \"A+R(5)+recompute\"):")
	for _, e := range attacks.Catalog() {
		tok := e.Token
		if e.TakesArg {
			tok += "(w)"
		}
		fmt.Fprintf(w, "  %-10s %-18s %s\n", tok, hookLabel(e.Build(0)), e.Summary)
	}
	fmt.Fprintln(w, "\nNamed strategies (Sec. VI-B catalog):")
	for _, s := range defense.Strategies() {
		fmt.Fprintf(w, "  %-10s stack: %s\n", s.Name, s.Stack)
	}
	fmt.Fprintln(w, "\nExtended strategies (post-paper mechanism classes):")
	for _, s := range defense.ExtendedStrategies() {
		fmt.Fprintf(w, "  %-10s stack: %s\n", s.Name, s.Stack)
	}
}

// describeStrategy resolves a strategy name or stack string and prints
// the mechanisms it composes, in application order.
func describeStrategy(w io.Writer, name string) error {
	s, err := defense.StrategyNamed(name)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "strategy %s\n", s.Name)
	fmt.Fprintf(w, "  stack: %s\n", s.Stack)
	if len(s.Stack) == 0 {
		fmt.Fprintln(w, "  no mechanisms (undefended baseline)")
		return nil
	}
	for _, m := range s.Stack {
		base, _, _ := strings.Cut(m.DefenseName(), "(")
		e, _ := attacks.LookupMechanism(base)
		fmt.Fprintf(w, "  %-10s %-18s %s\n", m.DefenseName(), hookLabel(m), e.Summary)
	}
	return nil
}

// hookLabel names the harness hooks a mechanism engages, read off the
// capability interfaces it implements: "[predictor]", "[pipeline]",
// "[context]", "+"-joined.
func hookLabel(m attacks.Mechanism) string {
	var hooks []string
	if _, ok := m.(attacks.PredictorWrapper); ok {
		hooks = append(hooks, "predictor")
	}
	if _, ok := m.(attacks.EffectsMechanism); ok {
		hooks = append(hooks, "pipeline")
	}
	_, sw := m.(attacks.ContextSwitcher)
	_, tg := m.(attacks.ContextTagger)
	if sw || tg {
		hooks = append(hooks, "context")
	}
	return "[" + strings.Join(hooks, "+") + "]"
}
