package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"vpsec/internal/scenario"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// smallConfig runs a workload once per mode, timing set-up in process.
func smallConfig(trace bool) config {
	return config{seed: defaultSeed, trace: trace, root: "..", minPasses: 1}
}

// smallSpecs picks up to perKind specs of each kind from specs, at
// warmupRuns trials.
func smallSpecs(specs []scenario.Spec, perKind int) []scenario.Spec {
	seen := map[scenario.Kind]int{}
	var out []scenario.Spec
	for _, s := range specs {
		if seen[s.Kind] >= perKind {
			continue
		}
		seen[s.Kind]++
		s.Runs = warmupRuns
		if s.Kind == scenario.KindDefenseMatrix {
			s.Strategies = []string{"A", "D"}
		}
		out = append(out, s)
	}
	return out
}

func smallWorkloads(t *testing.T) map[string]func() workload {
	t.Helper()
	matrix, ok := scenario.Lookup("cachebench-matrix")
	if !ok {
		t.Fatal("no cachebench-matrix scenario")
	}
	matrix.Runs = warmupRuns
	return map[string]func() workload{
		"paper-sweep": func() workload {
			return &sweep{in: makeInputs(smallSpecs(paperSpecs(), 1), 3, 1), countInstr: true}
		},
		"cachebench-full": func() workload {
			return &sweep{in: makeInputs([]scenario.Spec{matrix}, 3, 2)}
		},
		"serve-cold-hot": func() workload {
			w, err := newServe(smallSpecs(serveSpecs(), 3), 3)
			if err != nil {
				t.Fatal(err)
			}
			return w
		},
	}
}

// TestSmoke runs every workload at a reduced size in both modes and
// checks that each run passes its output checks and emits exactly the
// metrics BENCHMARK.json declares, with their units. Run it under
// -race to check the two-client serve driver.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for name, mk := range smallWorkloads(t) {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			res, lines, err := bench(context.Background(), smallConfig(trace), mk())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
				case got.Unit != unit:
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json says %q", name, trace, m, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", name, trace, m, got.Value)
				}
			}
			for m := range res.Metrics {
				if _, ok := want[m]; !ok {
					t.Errorf("%s trace=%v: metric %s is not declared", name, trace, m)
				}
			}
			if !trace {
				for m, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
					}
				}
			}
			if trace && name == "paper-sweep" {
				checkAccounting(t, lines)
			}
		}
	}
}

// checkAccounting checks the identities the traced breakdown rests on:
// the scenario spans cover the traced wall time, and the self times of
// every span inside them sum to their duration.
func checkAccounting(t *testing.T, lines []line) {
	t.Helper()
	v := map[string]float64{}
	self := 0.0
	for _, l := range lines {
		v[l.name] = l.value
		if strings.HasPrefix(l.name, "self_s.") {
			self += l.value
		}
	}
	wall, scen := v["traced.wall_s"], v["traced.scenario_s"]
	if math.Abs(wall-scen) > 0.02*wall+1e-3 {
		t.Errorf("scenario spans cover %.6fs of %.6fs traced wall time", scen, wall)
	}
	if math.Abs(self-scen) > 1e-6*scen {
		t.Errorf("span self times sum to %.9fs, scenario spans to %.9fs", self, scen)
	}
}

// TestDigestPin shows that the pinned digest gates the run: the digest
// of the reference pass passes, a corrupted one fails the run.
func TestDigestPin(t *testing.T) {
	ctx := context.Background()
	mk := smallWorkloads(t)["cachebench-full"]
	ref, err := mk().run(ctx, metered)
	if err != nil {
		t.Fatal(err)
	}
	good := digest(ref.out)
	bad := []byte(good)
	bad[0] ^= 1

	for _, tc := range []struct {
		pin  string
		want bool
	}{{good, true}, {string(bad), false}} {
		cfg := smallConfig(false)
		cfg.pin = tc.pin
		res, _, err := bench(ctx, cfg, mk())
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct != tc.want || (res.Failed == 0) != tc.want {
			t.Errorf("pin %s: correct=%v failed=%d, want correct=%v", tc.pin, res.Correct, res.Failed, tc.want)
		}
	}
}

// TestSeedInputs checks what the seed controls: the order and the spec
// seeds, and nothing else.
func TestSeedInputs(t *testing.T) {
	specs := paperSpecs()
	a, b := makeInputs(specs, defaultSeed, 1), makeInputs(specs, 7, 1)
	for i := range specs {
		if a.specs[i].Seed != specs[i].Seed {
			t.Fatalf("default seed moved %s's seed", specs[i].Name)
		}
		if b.specs[i].Seed != specs[i].Seed+7-defaultSeed {
			t.Fatalf("seed 7 gave %s seed %d", specs[i].Name, b.specs[i].Seed)
		}
		s := b.specs[i]
		s.Seed, s.Jobs = specs[i].Seed, specs[i].Jobs
		if s.Hash() != specs[i].Hash() {
			t.Fatalf("seed 7 changed more than %s's seed", specs[i].Name)
		}
	}
	if slices.Equal(a.order, b.order) {
		t.Fatal("seeds 1 and 7 give the same order")
	}
	if !slices.Equal(a.order, makeInputs(specs, defaultSeed, 1).order) {
		t.Fatal("one seed gave two orders")
	}
}
