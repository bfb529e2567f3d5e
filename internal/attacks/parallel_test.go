package attacks

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"vpsec/internal/core"
	"vpsec/internal/metrics"
)

// snapJSON renders a registry's canonical JSON export.
func snapJSON(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	j, err := reg.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(j)
}

// stripEnv clears the fields that legitimately differ between runs at
// different worker counts (the Options carry Jobs and the registry
// pointer) so the rest of the CaseResult can be compared exactly.
func stripEnv(r CaseResult) CaseResult {
	r.Opt = Options{}
	return r
}

// fig5MetricsSHA256 is the BENCH metrics SHA: the sha256 of the metrics
// JSON export of the Fig. 5 Train+Test sweep at Runs 100, Seed 1
// (BENCH_core.json's metrics_sha256, also checked by tools/benchcore
// and tools/benchobs). Any change to a simulated cycle, a predictor
// decision, a jitter draw or a published counter moves it.
const fig5MetricsSHA256 = "dbc23d315be2a2b0a95d7d1cad02c05da465810b8ef639133d72879d52215d4d"

// TestFig5MetricsDigest pins the BENCH metrics SHA in the unit suite:
// the four Fig. 5 Train+Test cells (NoVP/LVP × timing-window/
// persistent), run into one registry, must export the recorded bytes
// both inline on the calling goroutine (Jobs 1) and through the worker
// pool (Jobs 4).
func TestFig5MetricsDigest(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		reg := metrics.NewRegistry()
		for _, pk := range []PredictorKind{NoVP, LVP} {
			for _, ch := range []core.Channel{core.TimingWindow, core.Persistent} {
				opt := Options{Predictor: pk, Channel: ch,
					Runs: 100, Seed: 1, Jobs: jobs, Metrics: reg}
				if _, err := Run(core.TrainTest, opt); err != nil {
					t.Fatalf("jobs=%d %v/%v: %v", jobs, ch, pk, err)
				}
			}
		}
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(snapJSON(t, reg))))
		if got != fig5MetricsSHA256 {
			t.Errorf("jobs=%d: Fig. 5 metrics sha256 %s, want %s", jobs, got, fig5MetricsSHA256)
		}
	}
}

// TestRunJobsDeterminism is the determinism contract's regression
// test: the same case at Jobs=1 (legacy sequential loop) and Jobs=8
// (worker pool) must produce identical CaseResult observations,
// statistics, and a byte-identical metrics JSON export.
func TestRunJobsDeterminism(t *testing.T) {
	runAt := func(jobs int) (CaseResult, string) {
		reg := metrics.NewRegistry()
		opt := Options{Predictor: LVP, Channel: core.TimingWindow,
			Runs: 10, Seed: 42, Jobs: jobs, Metrics: reg}
		r, err := Run(core.TrainTest, opt)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return stripEnv(r), snapJSON(t, reg)
	}
	seq, seqJSON := runAt(1)
	par, parJSON := runAt(8)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("CaseResult differs between jobs=1 and jobs=8:\n%+v\nvs\n%+v", seq, par)
	}
	if seqJSON != parJSON {
		t.Errorf("metrics JSON differs between jobs=1 and jobs=8:\n%s\nvs\n%s", seqJSON, parJSON)
	}
}

// TestRunVariantJobsDeterminism covers the same contract on the
// RunVariant path (no recordTrial publishing, cycles read from the
// machine) for one Table II pattern.
func TestRunVariantJobsDeterminism(t *testing.T) {
	v, err := FindVariant("R^KI, S^SI', R^KI")
	if err != nil {
		t.Fatal(err)
	}
	runAt := func(jobs int) (CaseResult, string) {
		reg := metrics.NewRegistry()
		opt := Options{Predictor: LVP, Runs: 8, Seed: 7, Jobs: jobs, Metrics: reg}
		r, err := RunVariant(context.Background(), v, opt)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return stripEnv(r), snapJSON(t, reg)
	}
	seq, seqJSON := runAt(1)
	par, parJSON := runAt(8)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("variant CaseResult differs between jobs=1 and jobs=8:\n%+v\nvs\n%+v", seq, par)
	}
	if seqJSON != parJSON {
		t.Errorf("variant metrics JSON differs between jobs=1 and jobs=8:\n%s\nvs\n%s", seqJSON, parJSON)
	}
}
