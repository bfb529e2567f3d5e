package main

import (
	"bytes"
	"context"
	"maps"
	"slices"
	"strings"
	"time"

	"vpsec/internal/scenario"
)

// benchLayers runs untraced and traced passes interleaved — in the
// order U T, T U, U T, ... so neither side always runs first — then
// the layer probes, and returns the per-layer metrics.
func benchLayers(ctx context.Context, cfg config, w workload) (*result, []line, error) {
	if err := w.setup(ctx); err != nil {
		return nil, nil, err
	}
	var chk checker
	var ref *pass
	var traces []*pass
	var ratios []float64
	var counters []byte
	for win := newWindow(cfg.seconds); win.more(len(traces), minPairs); {
		order := []mode{plain, traced}
		if len(traces)%2 == 1 {
			order = []mode{traced, plain}
		}
		var pair [2]*pass
		for _, m := range order {
			settle()
			p, err := w.run(ctx, m)
			if err != nil {
				return nil, nil, err
			}
			chk.add(p)
			if ref == nil {
				ref = p
				chk.digest(cfg.pin, ref)
			} else {
				chk.same("traced and untraced passes", ref, p)
				p.out = nil
			}
			if m == traced {
				pair[1] = p
			} else {
				pair[0] = p
			}
		}
		traces = append(traces, pair[1])
		ratios = append(ratios, pair[1].wall.Seconds()/pair[0].wall.Seconds())

		// The simulated counters are a function of the inputs alone.
		snap, err := pair[1].reg.Snapshot().JSON()
		if err != nil {
			return nil, nil, err
		}
		if counters == nil {
			counters = snap
		} else if !bytes.Equal(snap, counters) {
			chk.fail("simulated counters differ between traced passes")
		}
	}
	probes, err := runProbes(ctx, cfg.root)
	if err != nil {
		return nil, nil, err
	}
	m, lines := layerMetrics(traces, median(ratios)-1, probes)
	return chk.result(m), lines, nil
}

// minPairs is the fewest untraced/traced pairs a per-layer run makes:
// two traced passes are the least that can show the simulated counters
// repeat.
const minPairs = 2

// layerKinds are the scenario kinds some workload runs under the
// benchmark's tracer (the server runs its own jobs untraced).
var layerKinds = []scenario.Kind{
	scenario.KindCase, scenario.KindVariant, scenario.KindEviction, scenario.KindSMT,
	scenario.KindTableIII, scenario.KindFigure, scenario.KindNoiseSweep, scenario.KindConfSweep,
	scenario.KindDefenseSweep, scenario.KindDefenseMatrix, scenario.KindCacheMatrix,
}

// layerMetrics turns the traced passes into per-layer metrics. Times a
// workload may not reach are reported as shares of the traced wall
// time (layer seconds per wall second; concurrent layers can exceed 1),
// so a layer a workload never enters reads 0 rather than a fake time.
// The breakdown lines carry the same times in seconds per pass.
func layerMetrics(traces []*pass, overhead float64, probes map[string]metric) (map[string]metric, []line) {
	sink := newLayerSink()
	var wall time.Duration
	var srv serverLayers
	for _, p := range traces {
		sink.merge(p.layers)
		wall += p.wall
		if p.server != nil {
			srv.merge(p.server)
		}
	}
	n := float64(len(traces))
	share := func(d time.Duration) float64 { return d.Seconds() / wall.Seconds() }
	perPass := func(d time.Duration) float64 { return d.Seconds() / n }

	reg := traces[0].reg
	c := func(name string) float64 { return float64(reg.Counter(name, "").Value()) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var predLookups, predCorrect, predWrong float64
	for _, name := range reg.Names() {
		if !strings.HasPrefix(name, "pred.") {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".lookups"):
			predLookups += c(name)
		case strings.HasSuffix(name, ".correct"):
			predCorrect += c(name)
		case strings.HasSuffix(name, ".mispredicts"):
			predWrong += c(name)
		}
	}
	cycles, retired := c("cpu.cycles"), c("cpu.commit.retired")
	hitRate := func(scope string) float64 {
		h, m := c("mem."+scope+".hits"), c("mem."+scope+".misses")
		return ratio(h, h+m)
	}
	trialBusy := sink.total("trial")

	m := map[string]metric{
		"attacks.trials":         {c("attacks.trials"), "count"},
		"attacks.setup_share":    {share(sink.self("setup")), "ratio"},
		"attacks.kernel_share":   {share(sink.self("kernel")), "ratio"},
		"attacks.probe_share":    {share(sink.self("probe")), "ratio"},
		"attacks.stats_share":    {share(sink.self("stats")), "ratio"},
		"cpu.cycles":             {cycles, "count"},
		"cpu.retired":            {retired, "count"},
		"cpu.ipc":                {ratio(retired, cycles), "ratio"},
		"cpu.useful_frac":        {ratio(retired, c("cpu.fetch.instrs")), "fraction"},
		"cpu.squashes":           {c("cpu.squash.value") + c("cpu.squash.branch"), "count"},
		"cpu.replays":            {c("cpu.replay.instrs"), "count"},
		"mem.l1d.hit_rate":       {hitRate("l1d"), "fraction"},
		"mem.l2.hit_rate":        {hitRate("l2"), "fraction"},
		"mem.dram.reads":         {c("mem.dram.reads"), "count"},
		"mem.tlb.hit_rate":       {ratio(c("mem.tlb.hits"), c("mem.tlb.hits")+c("mem.tlb.misses")), "fraction"},
		"pred.lookups":           {predLookups, "count"},
		"pred.accuracy":          {ratio(predCorrect, predCorrect+predWrong), "fraction"},
		"runner.items":           {float64(sink.items) / n, "count"},
		"runner.busy_frac":       {ratio(trialBusy.Seconds(), sink.capacity.Seconds()), "fraction"},
		"runner.retries":         {float64(sink.retries) / n, "count"},
		"runner.queue_share":     {share(sink.queueWait), "ratio"},
		"runner.merge_share":     {share(sink.self("merge")), "ratio"},
		"server.hit_ratio":       {ratio(float64(srv.hits), float64(srv.submitted)), "fraction"},
		"server.rejected":        {float64(srv.rejected) / n, "count"},
		"server.submit_share":    {share(srv.submit.total()), "ratio"},
		"server.store_get_share": {share(srv.get.total()), "ratio"},
		"server.store_put_share": {share(srv.put.total()), "ratio"},
		"obs.overhead_frac":      {overhead, "fraction"},
	}
	for _, k := range layerKinds {
		m["scenario.execute_share."+string(k)] = metric{share(sink.kinds[string(k)]), "ratio"}
	}
	maps.Copy(m, probes)

	// The breakdown: the same layers in seconds per pass, and the
	// accounting identities the shares rest on.
	var scenarioTotal time.Duration
	for _, d := range sink.kinds {
		scenarioTotal += d
	}
	lines := []line{
		{"traced.passes", n, "count"},
		{"traced.wall_s", perPass(wall), "s"},
		{"traced.events", float64(sink.events) / n, "count"},
		{"traced.scenario_s", perPass(scenarioTotal), "s"},
	}
	for _, k := range layerKinds {
		if d := sink.kinds[string(k)]; d > 0 {
			lines = append(lines, line{"scenario.execute_s." + string(k), perPass(d), "s"})
		}
	}
	names := make([]string, 0, len(sink.spans))
	for name := range sink.spans {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		lines = append(lines, line{"self_s." + name, perPass(sink.spans[name].self), "s"})
	}
	for _, l := range []line{
		{"attacks.setup_s", perPass(sink.self("setup")), "s"},
		{"attacks.kernel_s", perPass(sink.self("kernel")), "s"},
		{"attacks.probe_s", perPass(sink.self("probe")), "s"},
		{"attacks.stats_s", perPass(sink.self("stats")), "s"},
		{"runner.queue_wait_s", perPass(sink.queueWait), "s"},
		{"runner.merge_s", perPass(sink.self("merge")), "s"},
	} {
		if l.value > 0 {
			lines = append(lines, l)
		}
	}
	if cycles > 0 {
		hostNs := float64(sink.self("kernel")+sink.self("probe")) / n
		lines = append(lines, line{"cpu.host_ns_per_cycle", hostNs / cycles, "ns"})
	}
	if srv.submitted > 0 {
		lines = append(lines,
			line{"server.submit_us", srv.submit.meanUS(), "us"},
			line{"server.store_get_us", srv.get.meanUS(), "us"},
			line{"server.store_put_us", srv.put.meanUS(), "us"})
	}
	return m, lines
}
