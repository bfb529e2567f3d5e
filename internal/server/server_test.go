package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vpsec/internal/core"
	"vpsec/internal/scenario"
)

// newTestServer starts a Server inside an httptest listener and
// registers a drain on cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// post sends a JSON body and decodes the response envelope.
func post(t *testing.T, client *http.Client, url string, body any, out any) (status int) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s response %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode
}

// get fetches a URL and decodes the JSON response.
func get(t *testing.T, client *http.Client, url string, out any) (status int) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s response %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode
}

// smallSpec returns a fast ad-hoc case spec; seed keeps concurrent
// tests' cache cells distinct.
func smallSpec(seed int64, runs int) map[string]any {
	return map[string]any{
		"kind":     "case",
		"category": string(core.TrainTest),
		"runs":     runs,
		"seed":     seed,
	}
}

// slowSpec returns a spec that runs long enough (~1s) to observably
// occupy a worker while followup requests arrive. The memory jitter
// keeps the timing distributions non-degenerate at high trial counts.
func slowSpec(seed int64) map[string]any {
	s := smallSpec(seed, 20000)
	s["mem_jitter"] = 12
	return s
}

// TestSubmitPollFetch is the basic lifecycle: async submit, poll until
// done (observing progress), fetch the bare result, and see the
// counters move at /metrics.
func TestSubmitPollFetch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	c := ts.Client()

	var jv JobView
	status := post(t, c, ts.URL+"/v1/jobs", map[string]any{"spec": smallSpec(11, 6)}, &jv)
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("submit: status %d", status)
	}
	if jv.ID == "" || jv.SpecSHA256 == "" || len(jv.SpecSHA256) != 64 {
		t.Fatalf("submit: malformed job view %+v", jv)
	}

	deadline := time.Now().Add(30 * time.Second)
	for jv.State != StateDone && jv.State != StateFailed {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", jv.ID, jv.State)
		}
		get(t, c, ts.URL+"/v1/jobs/"+jv.ID, &jv)
	}
	if jv.State != StateDone {
		t.Fatalf("job failed: %s", jv.Error)
	}
	if jv.Cache != CacheMiss {
		t.Errorf("first run cache = %q, want %q", jv.Cache, CacheMiss)
	}
	if jv.Progress == nil || jv.Progress.Done == 0 || jv.Progress.Total == 0 {
		t.Errorf("done job has no progress counts: %+v", jv.Progress)
	}
	var res scenario.Result
	if err := json.Unmarshal(jv.Result, &res); err != nil {
		t.Fatalf("result does not decode as a scenario.Result: %v", err)
	}
	if len(res.Cases) != 1 {
		t.Errorf("result has %d cases, want 1", len(res.Cases))
	}

	// The bare endpoint serves the stored canonical bytes; the inlined
	// copy is re-indented by the response encoder, so compare compacted.
	raw := getRaw(t, c, ts.URL+"/v1/jobs/"+jv.ID+"/result", http.StatusOK)
	var bare, inlined bytes.Buffer
	if err := json.Compact(&bare, raw); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&inlined, jv.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bare.Bytes(), inlined.Bytes()) {
		t.Error("bare result endpoint and inlined result disagree")
	}

	prom := getRaw(t, c, ts.URL+"/metrics", http.StatusOK)
	for _, want := range []string{
		"vpsec_server_jobs_submitted_total 1",
		"vpsec_server_jobs_completed_total 1",
		"vpsec_server_cache_misses_total 1",
		"vpsec_server_cache_entries 1",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestCacheHitByteIdentical is the headline cache guarantee over a
// sample of registry scenarios: the second submission is served from
// the cache (cache: hit, hits counter moves) and its result bytes are
// identical to the cold run's.
func TestCacheHitByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	c := ts.Client()

	for _, name := range []string{"train-test-timing-lvp", "eviction-train-test", "table2-row02-train-test", "cachebench-matrix"} {
		if _, ok := scenario.Lookup(name); !ok {
			t.Fatalf("registry scenario %q missing", name)
		}
		var cold JobView
		status := post(t, c, ts.URL+"/v1/jobs", map[string]any{"scenario": name, "wait": true}, &cold)
		if status != http.StatusOK || cold.State != StateDone {
			t.Fatalf("%s: cold run status %d state %s error %s", name, status, cold.State, cold.Error)
		}
		if cold.Cache != CacheMiss {
			t.Fatalf("%s: cold run cache=%q", name, cold.Cache)
		}
		var hot JobView
		status = post(t, c, ts.URL+"/v1/jobs", map[string]any{"scenario": name, "wait": true}, &hot)
		if status != http.StatusOK || hot.State != StateDone {
			t.Fatalf("%s: hot run status %d state %s", name, status, hot.State)
		}
		if hot.Cache != CacheHit {
			t.Errorf("%s: second submission cache=%q, want hit", name, hot.Cache)
		}
		if hot.ID == cold.ID {
			t.Errorf("%s: cache hit reused the cold job id", name)
		}
		if !bytes.Equal(cold.Result, hot.Result) {
			t.Errorf("%s: cache hit bytes differ from the cold run", name)
		}
		// The bare result endpoint serves the stored bytes verbatim for
		// both jobs — the byte-identity guarantee at its strongest.
		coldRaw := getRaw(t, c, ts.URL+"/v1/jobs/"+cold.ID+"/result", http.StatusOK)
		hotRaw := getRaw(t, c, ts.URL+"/v1/jobs/"+hot.ID+"/result", http.StatusOK)
		if !bytes.Equal(coldRaw, hotRaw) {
			t.Errorf("%s: stored result bytes differ between cold and cached fetch", name)
		}
	}

	if hits := s.reg.Counter(metricCacheHits, "").Value(); hits != 4 {
		t.Errorf("cache hits counter = %d, want 4", hits)
	}
}

// TestCanonicalizationSharesCacheCells: a registry name and an
// equivalent hand-written spec (different spelling: defaults elided,
// no name/title) land on the same cache cell.
func TestCanonicalizationSharesCacheCells(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	c := ts.Client()

	var byName JobView
	if st := post(t, c, ts.URL+"/v1/jobs", map[string]any{"scenario": "train-test-timing-lvp", "wait": true}, &byName); st != http.StatusOK {
		t.Fatalf("by-name run: status %d", st)
	}
	// The registry entry pins runs=100, confidence=4, seed=1,
	// channel=timing-window, predictor=lvp; spell the same experiment
	// with every default elided.
	adhoc := map[string]any{
		"kind":     "case",
		"category": string(core.TrainTest),
		"seed":     1,
	}
	var bySpec JobView
	if st := post(t, c, ts.URL+"/v1/jobs", map[string]any{"spec": adhoc, "wait": true}, &bySpec); st != http.StatusOK {
		t.Fatalf("by-spec run: status %d", st)
	}
	if bySpec.Cache != CacheHit {
		t.Errorf("equivalent ad-hoc spec missed the cache (cache=%q, hash %s vs %s)",
			bySpec.Cache, bySpec.SpecSHA256, byName.SpecSHA256)
	}
	if !bytes.Equal(byName.Result, bySpec.Result) {
		t.Error("equivalent spellings returned different bytes")
	}
}

// TestSingleflight: concurrent duplicate submissions of one spec
// execute once — every caller is attached to the same job and gets the
// same result.
func TestSingleflight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	c := ts.Client()

	// Occupy the single worker so the duplicates stay queued together.
	var blocker JobView
	post(t, c, ts.URL+"/v1/jobs", map[string]any{"spec": slowSpec(21)}, &blocker)

	const dups = 4
	var wg sync.WaitGroup
	views := make([]JobView, dups)
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			post(t, c, ts.URL+"/v1/jobs", map[string]any{"spec": smallSpec(22, 6), "wait": true, "timeout_ms": 60000}, &views[i])
		}(i)
	}
	wg.Wait()

	for i := 1; i < dups; i++ {
		if views[i].ID != views[0].ID {
			t.Errorf("duplicate %d got job %s, want %s", i, views[i].ID, views[0].ID)
		}
	}
	for i, v := range views {
		if v.State != StateDone {
			t.Errorf("caller %d: state %s error %s", i, v.State, v.Error)
		}
		if !bytes.Equal(v.Result, views[0].Result) {
			t.Errorf("caller %d got different result bytes", i)
		}
	}
	if ded := s.reg.Counter(metricJobsDeduped, "").Value(); ded != dups-1 {
		t.Errorf("deduped counter = %d, want %d", ded, dups-1)
	}
	if misses := s.reg.Counter(metricCacheMisses, "").Value(); misses != 2 {
		t.Errorf("cache misses = %d, want 2 (blocker + one duplicate)", misses)
	}
}

// TestAdmissionControl: the queue-depth cap answers 503 queue_full and
// the per-client cap answers 429 client_limit, with X-Client-ID
// selecting the account.
func TestAdmissionControl(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, ClientInFlight: 2})
	c := ts.Client()

	// Fill the worker, then the one queue slot.
	post(t, c, ts.URL+"/v1/jobs", map[string]any{"spec": slowSpec(31)}, nil)
	waitForRunning(t, ts, c)
	post(t, c, ts.URL+"/v1/jobs", map[string]any{"spec": smallSpec(32, 4)}, nil)

	var envelope struct {
		Error apiError `json:"error"`
	}
	status := post(t, c, ts.URL+"/v1/jobs", map[string]any{"spec": smallSpec(33, 4)}, &envelope)
	if status != http.StatusServiceUnavailable || envelope.Error.Code != "queue_full" {
		t.Errorf("over-queue submit: status %d code %q, want 503 queue_full", status, envelope.Error.Code)
	}

	// A distinct client hits the per-client cap before the queue. The
	// first client already holds 2 in-flight jobs (running + queued).
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(mustJSON(t, map[string]any{"spec": smallSpec(34, 4)})))
	req.Header.Set("X-Client-ID", "other")
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// The queue is still full, so the other client is rejected on
	// depth, not on its own budget.
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("other client: status %d body %s", resp.StatusCode, raw)
	}

	// The first client, at its cap of 2, is rejected by client_limit
	// once the queue has room — exercised on a fresh server to avoid
	// timing on the blocker.
	_, ts2 := newTestServer(t, Config{Workers: 1, QueueDepth: 10, ClientInFlight: 1})
	c2 := ts2.Client()
	post(t, c2, ts2.URL+"/v1/jobs", map[string]any{"spec": slowSpec(35)}, nil)
	status = post(t, c2, ts2.URL+"/v1/jobs", map[string]any{"spec": smallSpec(36, 4)}, &envelope)
	if status != http.StatusTooManyRequests || envelope.Error.Code != "client_limit" {
		t.Errorf("over-limit submit: status %d code %q, want 429 client_limit", status, envelope.Error.Code)
	}
}

// waitForRunning polls /healthz until a job is executing.
func waitForRunning(t *testing.T, ts *httptest.Server, c *http.Client) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var hv healthView
		get(t, c, ts.URL+"/healthz", &hv)
		if hv.Running > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no job started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// getRaw fetches a URL expecting a status and returns the raw body.
func getRaw(t *testing.T, c *http.Client, url string, want int) []byte {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, resp.StatusCode, want, raw)
	}
	return raw
}

// mustJSON marshals or fails the test.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestScenarioEndpoints: the registry listing matches scenario.Names
// and the describe endpoint returns the registered spec with its
// canonical hash.
func TestScenarioEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	c := ts.Client()

	var entries []scenarioEntry
	get(t, c, ts.URL+"/v1/scenarios", &entries)
	names := scenario.Names()
	if len(entries) != len(names) {
		t.Fatalf("listing has %d entries, registry has %d", len(entries), len(names))
	}
	for i, e := range entries {
		if e.Name != names[i] {
			t.Fatalf("entry %d is %q, want %q", i, e.Name, names[i])
		}
	}

	var detail scenarioDetail
	get(t, c, ts.URL+"/v1/scenarios/table3-lvp", &detail)
	reg, _ := scenario.Lookup("table3-lvp")
	if detail.SpecSHA256 != reg.Hash() {
		t.Errorf("describe hash %s, want %s", detail.SpecSHA256, reg.Hash())
	}
	if detail.Spec.Kind != scenario.KindTableIII || detail.Spec.Runs != reg.Runs {
		t.Errorf("describe spec %+v does not match the registry entry", detail.Spec)
	}

	if status := get(t, c, ts.URL+"/v1/scenarios/nope", nil); status != http.StatusNotFound {
		t.Errorf("unknown scenario: status %d", status)
	}
}

// TestSubmitErrors: the documented 4xx error codes.
func TestSubmitErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	c := ts.Client()

	cases := []struct {
		body   any
		status int
		code   string
	}{
		{map[string]any{}, http.StatusBadRequest, "bad_request"},
		{map[string]any{"scenario": "nope"}, http.StatusBadRequest, "unknown_scenario"},
		{map[string]any{"scenario": "fig5", "spec": smallSpec(1, 2)}, http.StatusBadRequest, "bad_request"},
		{map[string]any{"spec": map[string]any{"kind": "case"}}, http.StatusBadRequest, "invalid_spec"},
		{map[string]any{"spec": map[string]any{"kind": "case", "category": "Train + Test", "bogus": 1}}, http.StatusBadRequest, "invalid_spec"},
		{map[string]any{"spec": map[string]any{"kind": "sim", "program": "/etc/passwd"}}, http.StatusBadRequest, "invalid_spec"},
	}
	for i, tc := range cases {
		var envelope struct {
			Error apiError `json:"error"`
		}
		status := post(t, c, ts.URL+"/v1/jobs", tc.body, &envelope)
		if status != tc.status || envelope.Error.Code != tc.code {
			t.Errorf("case %d: status %d code %q, want %d %q", i, status, envelope.Error.Code, tc.status, tc.code)
		}
	}

	if status := get(t, c, ts.URL+"/v1/jobs/j-999999", nil); status != http.StatusNotFound {
		t.Errorf("unknown job: status %d", status)
	}
	if status := get(t, c, ts.URL+"/v1/batch/b-9999", nil); status != http.StatusNotFound {
		t.Errorf("unknown batch: status %d", status)
	}
}

// TestJobFailure: a spec that validates but cannot execute surfaces as
// state=failed with the execution error, and the result endpoint
// reports job_failed.
func TestJobFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	c := ts.Client()

	// Spill Over has no SMT volatile variant; Validate accepts the
	// category, execution rejects it.
	body := map[string]any{"spec": map[string]any{
		"kind": "smt", "category": string(core.SpillOver), "runs": 2,
	}, "wait": true}
	var jv JobView
	post(t, c, ts.URL+"/v1/jobs", body, &jv)
	if jv.State != StateFailed || jv.Error == "" {
		t.Fatalf("job state %s error %q, want failed", jv.State, jv.Error)
	}
	var envelope struct {
		Error apiError `json:"error"`
	}
	if status := get(t, c, ts.URL+"/v1/jobs/"+jv.ID+"/result", &envelope); status != http.StatusConflict || envelope.Error.Code != "job_failed" {
		t.Errorf("failed job result fetch: status %d code %q", status, envelope.Error.Code)
	}
}

// TestResultNotDone: fetching the result of a queued job answers 409
// not_done.
func TestResultNotDone(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	c := ts.Client()

	post(t, c, ts.URL+"/v1/jobs", map[string]any{"spec": slowSpec(41)}, nil)
	var queued JobView
	post(t, c, ts.URL+"/v1/jobs", map[string]any{"spec": smallSpec(42, 4)}, &queued)
	var envelope struct {
		Error apiError `json:"error"`
	}
	if status := get(t, c, ts.URL+"/v1/jobs/"+queued.ID+"/result", &envelope); status != http.StatusConflict || envelope.Error.Code != "not_done" {
		t.Errorf("queued job result fetch: status %d code %q, want 409 not_done", status, envelope.Error.Code)
	}
}

// shrunkRegistry returns every registered scenario with its trial
// counts shrunk (the same reductions the scenario package's own
// registry-execution test uses), as inline spec payloads.
func shrunkRegistry(t *testing.T) []json.RawMessage {
	t.Helper()
	var specs []json.RawMessage
	for _, s := range scenario.All() {
		small := s
		small.Runs = 2
		switch small.Kind {
		case scenario.KindDefenseSweep:
			small.MaxWindow = 1
		case scenario.KindNoiseSweep:
			small.Jitters = []uint64{0}
		case scenario.KindConfSweep:
			small.Confidences = []int{2}
		}
		data, err := small.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, json.RawMessage(data))
	}
	return specs
}

// TestBatchShrunkRegistry fans the whole registry (shrunk trial
// counts) through POST /v1/batch and polls the batch to completion,
// checking per-job progress arrives.
func TestBatchShrunkRegistry(t *testing.T) {
	// The registry is 1000+ entries (the cachebench family alone is
	// 976) — far past the default queue and per-client caps.
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 2048, ClientInFlight: 2048})
	c := ts.Client()

	var bv BatchView
	status := post(t, c, ts.URL+"/v1/batch", map[string]any{"specs": shrunkRegistry(t)}, &bv)
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("batch submit: status %d", status)
	}
	if bv.Total != len(scenario.Names()) {
		t.Fatalf("batch total %d, want %d", bv.Total, len(scenario.Names()))
	}

	deadline := time.Now().Add(120 * time.Second)
	for bv.Done+bv.Failed < bv.Total {
		if time.Now().After(deadline) {
			t.Fatalf("batch stuck at %d/%d", bv.Done+bv.Failed, bv.Total)
		}
		time.Sleep(20 * time.Millisecond)
		get(t, c, ts.URL+"/v1/batch/"+bv.ID, &bv)
	}
	if bv.Failed != 0 {
		for _, j := range bv.Jobs {
			if j.State == StateFailed {
				t.Errorf("job %s (%s): %s", j.ID, j.Scenario, j.Error)
			}
		}
		t.Fatalf("%d batch jobs failed", bv.Failed)
	}
	for _, j := range bv.Jobs {
		if j.Cache == CacheMiss && (j.Progress == nil || j.Progress.Done == 0) {
			t.Errorf("job %s finished without progress counts", j.ID)
		}
		if j.Result != nil {
			t.Errorf("batch view inlines results (job %s)", j.ID)
		}
	}
}

// TestBatchFullRegistry is the acceptance run: the full registry at
// paper defaults, batched once cold and once hot. It runs only under
// VPSERVER_FULL=1 (make server-check) — the 68 attack scenarios cost
// roughly 15s of simulation on one core, and the 978 cachebench
// entries a few seconds more.
func TestBatchFullRegistry(t *testing.T) {
	if os.Getenv("VPSERVER_FULL") == "" {
		t.Skip("set VPSERVER_FULL=1 (make server-check) to run the full registry batch")
	}
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 2048, ClientInFlight: 2048})
	c := ts.Client()

	names := scenario.Names()
	var bv BatchView
	post(t, c, ts.URL+"/v1/batch", map[string]any{"scenarios": names}, &bv)
	if bv.Total != len(names) {
		t.Fatalf("batch total %d, want %d", bv.Total, len(names))
	}

	deadline := time.Now().Add(10 * time.Minute)
	sawProgress := false
	for bv.Done+bv.Failed < bv.Total {
		if time.Now().After(deadline) {
			t.Fatalf("batch stuck at %d/%d", bv.Done+bv.Failed, bv.Total)
		}
		time.Sleep(100 * time.Millisecond)
		get(t, c, ts.URL+"/v1/batch/"+bv.ID, &bv)
		for _, j := range bv.Jobs {
			if j.State == StateRunning && j.Progress != nil && j.Progress.Total > 0 {
				sawProgress = true
			}
		}
	}
	if bv.Failed != 0 {
		for _, j := range bv.Jobs {
			if j.State == StateFailed {
				t.Errorf("job %s (%s): %s", j.ID, j.Scenario, j.Error)
			}
		}
		t.Fatalf("%d jobs failed", bv.Failed)
	}
	if !sawProgress {
		t.Error("no per-job progress observed while the batch ran")
	}

	// The hot pass: the same batch again, every entry served from cache.
	var hot BatchView
	status := post(t, c, ts.URL+"/v1/batch", map[string]any{"scenarios": names}, &hot)
	if status != http.StatusOK {
		t.Fatalf("hot batch: status %d (want 200, fully answered from cache)", status)
	}
	if hot.Done != hot.Total {
		t.Fatalf("hot batch done %d/%d", hot.Done, hot.Total)
	}
	for _, j := range hot.Jobs {
		if j.Cache != CacheHit {
			t.Errorf("hot job %s (%s) cache=%q", j.ID, j.Scenario, j.Cache)
		}
	}
	if hits := s.reg.Counter(metricCacheHits, "").Value(); hits != uint64(len(names)) {
		t.Errorf("cache hits = %d, want %d", hits, len(names))
	}
}

// TestBatchCacheBenchFamily batches the whole cachebench scenario
// family (every enumerated three-step case plus the two matrices)
// cold and then hot, asserting the hot pass is answered 100% from the
// cache with byte-identical stored results. Gated with the other
// full-registry acceptance run: set VPSERVER_FULL=1 (make server-check).
func TestBatchCacheBenchFamily(t *testing.T) {
	if os.Getenv("VPSERVER_FULL") == "" {
		t.Skip("set VPSERVER_FULL=1 (make server-check) to batch the full cachebench family")
	}
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 2048, ClientInFlight: 2048})
	c := ts.Client()

	var names []string
	for _, n := range scenario.Names() {
		if strings.HasPrefix(n, "cachebench-") {
			names = append(names, n)
		}
	}
	if len(names) != 976+2 {
		t.Fatalf("cachebench family has %d registered scenarios, want 978", len(names))
	}

	var cold BatchView
	post(t, c, ts.URL+"/v1/batch", map[string]any{"scenarios": names}, &cold)
	if cold.Total != len(names) {
		t.Fatalf("cold batch total %d, want %d", cold.Total, len(names))
	}
	deadline := time.Now().Add(10 * time.Minute)
	for cold.Done+cold.Failed < cold.Total {
		if time.Now().After(deadline) {
			t.Fatalf("cold batch stuck at %d/%d", cold.Done+cold.Failed, cold.Total)
		}
		time.Sleep(100 * time.Millisecond)
		get(t, c, ts.URL+"/v1/batch/"+cold.ID, &cold)
	}
	if cold.Failed != 0 {
		for _, j := range cold.Jobs {
			if j.State == StateFailed {
				t.Errorf("job %s (%s): %s", j.ID, j.Scenario, j.Error)
			}
		}
		t.Fatalf("%d cold cachebench jobs failed", cold.Failed)
	}

	hits0 := s.reg.Counter(metricCacheHits, "").Value()
	var hot BatchView
	status := post(t, c, ts.URL+"/v1/batch", map[string]any{"scenarios": names}, &hot)
	if status != http.StatusOK {
		t.Fatalf("hot batch: status %d (want 200, fully answered from cache)", status)
	}
	if hot.Done != hot.Total {
		t.Fatalf("hot batch done %d/%d", hot.Done, hot.Total)
	}
	for _, j := range hot.Jobs {
		if j.Cache != CacheHit {
			t.Errorf("hot job %s (%s) cache=%q, want hit", j.ID, j.Scenario, j.Cache)
		}
	}
	if hits := s.reg.Counter(metricCacheHits, "").Value() - hits0; hits != uint64(len(names)) {
		t.Errorf("hot pass cache hits = %d, want %d (100%%)", hits, len(names))
	}

	// Byte identity of the stored results: the hot job ids resolve to
	// the same bytes the cold jobs produced, pairing by scenario name.
	coldByName := map[string]string{}
	for _, j := range cold.Jobs {
		coldByName[j.Scenario] = j.ID
	}
	for _, j := range hot.Jobs {
		coldID, ok := coldByName[j.Scenario]
		if !ok {
			t.Fatalf("hot job %s has no cold counterpart", j.Scenario)
		}
		a := getRaw(t, c, ts.URL+"/v1/jobs/"+coldID+"/result", http.StatusOK)
		b := getRaw(t, c, ts.URL+"/v1/jobs/"+j.ID+"/result", http.StatusOK)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: resubmitted result bytes differ from the cold run", j.Scenario)
		}
	}
}

// TestGracefulDrain: Shutdown finishes queued and running jobs, then
// refuses new work; a second shutdown errors.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	c := ts.Client()

	var jv JobView
	post(t, c, ts.URL+"/v1/jobs", map[string]any{"spec": smallSpec(51, 200)}, &jv)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	get(t, c, ts.URL+"/v1/jobs/"+jv.ID, &jv)
	if jv.State != StateDone {
		t.Errorf("drained job state %s, want done", jv.State)
	}
	var hv healthView
	if status := get(t, c, ts.URL+"/healthz", &hv); status != http.StatusServiceUnavailable || hv.Status != "draining" {
		t.Errorf("healthz after drain: status %d %+v", status, hv)
	}
	var envelope struct {
		Error apiError `json:"error"`
	}
	if status := post(t, c, ts.URL+"/v1/jobs", map[string]any{"spec": smallSpec(52, 2)}, &envelope); status != http.StatusServiceUnavailable || envelope.Error.Code != "shutting_down" {
		t.Errorf("post-drain submit: status %d code %q", status, envelope.Error.Code)
	}
	if err := s.Shutdown(context.Background()); err == nil {
		t.Error("second Shutdown did not error")
	}
}

// TestForcedShutdownCancels: an expired drain budget cancels running
// jobs through the runner's context path instead of hanging.
func TestForcedShutdownCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	c := ts.Client()

	var jv JobView
	post(t, c, ts.URL+"/v1/jobs", map[string]any{"spec": slowSpec(61)}, &jv)
	waitForRunning(t, ts, c)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // zero budget: force immediately
	start := time.Now()
	if err := s.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("forced shutdown returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("forced shutdown took %s", elapsed)
	}
	get(t, c, ts.URL+"/v1/jobs/"+jv.ID, &jv)
	if jv.State != StateFailed {
		t.Errorf("cancelled job state %s, want failed", jv.State)
	}
}

// TestSyncWaitTimeout: wait=true with a tiny budget answers 202 with
// the job still in flight, and the job remains pollable to completion.
func TestSyncWaitTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	c := ts.Client()

	var jv JobView
	status := post(t, c, ts.URL+"/v1/jobs", map[string]any{"spec": slowSpec(71), "wait": true, "timeout_ms": 1}, &jv)
	if status != http.StatusAccepted {
		t.Fatalf("tiny-budget wait: status %d, want 202", status)
	}
	if jv.State == StateDone {
		t.Fatal("slow job reported done after 1ms")
	}
	status = get(t, c, ts.URL+"/v1/jobs/"+jv.ID+"?wait=true&timeout_ms=60000", &jv)
	if status != http.StatusOK || jv.State != StateDone {
		t.Fatalf("long poll: status %d state %s error %s", status, jv.State, jv.Error)
	}
	_ = fmt.Sprintf // keep fmt imported if assertions above change
}

// TestWaitReleasesTimer: a wait=true request answered before its wait
// budget expires must not leave its timer live. Under the module's
// go 1.22 timer rules an unstopped time.After timer is retained until
// it fires, so every answered request would pin one for the full
// (default 60 s) budget and a busy server's live heap would grow with
// its request rate.
func TestWaitReleasesTimer(t *testing.T) {
	const requests = 4096
	s := New(Config{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	body := mustJSON(t, map[string]any{"spec": smallSpec(81, 2), "wait": true})
	submit := func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("submit: status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	submit() // cold: runs the job and fills the cache cell

	liveHeap := func() uint64 {
		s.mu.Lock()
		s.jobs = make(map[string]*Job)
		s.mu.Unlock()
		// Twice: the second collection also frees what the first only
		// moved to the sync.Pool victim caches.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	for i := 0; i < requests; i++ {
		submit() // cache hits, answered at once
	}
	after := liveHeap()
	if after > before && (after-before)/requests > 64 {
		t.Fatalf("live heap grew %d B over %d answered wait=true requests (%d B each); want at most 64 B each",
			after-before, requests, (after-before)/requests)
	}
}
