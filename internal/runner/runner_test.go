package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vpsec/internal/metrics"
)

// item simulates one deterministic work item: the "observation" is a
// pure function of the index, and the metrics it records are too.
func item(_ context.Context, i int, reg *metrics.Registry) (int, error) {
	if reg != nil {
		reg.Counter("test.items", "items run").Inc()
		reg.Histogram("test.obs", "per-item observations", []float64{10, 100}).
			Observe(float64(7 * i))
	}
	return i * i, nil
}

// TestMapOrder: results come back in index order at every worker
// count, including the inline path.
func TestMapOrder(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 0} {
		out, err := Map(context.Background(), Config{Jobs: jobs}, 20, item)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if len(out) != 20 {
			t.Fatalf("jobs=%d: %d results, want 20", jobs, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("jobs=%d: out[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

// TestMapMetricsDeterministic: the merged registry export is
// byte-identical across worker counts.
func TestMapMetricsDeterministic(t *testing.T) {
	snap := func(jobs int) string {
		reg := metrics.NewRegistry()
		if _, err := Map(context.Background(), Config{Jobs: jobs, Metrics: reg}, 31, item); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		j, err := reg.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(j)
	}
	want := snap(1)
	for _, jobs := range []int{2, 3, 8} {
		if got := snap(jobs); got != want {
			t.Errorf("jobs=%d export differs from sequential:\n%s\nvs\n%s", jobs, got, want)
		}
	}
}

// TestMapError: a failing item aborts the map and is reported with its
// index; sibling cancellations never mask it.
func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	fail := func(_ context.Context, i int, _ *metrics.Registry) (int, error) {
		if i == 5 {
			return 0, boom
		}
		return i, nil
	}
	for _, jobs := range []int{1, 4} {
		out, err := Map(context.Background(), Config{Jobs: jobs, Retries: -1}, 32, fail)
		if out != nil {
			t.Errorf("jobs=%d: non-nil results on error", jobs)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("jobs=%d: err = %v, want wrapped boom", jobs, err)
		}
		if !strings.Contains(err.Error(), "item 5") {
			t.Errorf("jobs=%d: err %q does not name item 5", jobs, err)
		}
	}
}

// TestMapRetry: a transiently failing item is retried on a fresh
// scratch registry, and the failed attempt's metrics never reach the
// shared registry.
func TestMapRetry(t *testing.T) {
	var failed atomic.Bool
	flaky := func(_ context.Context, i int, reg *metrics.Registry) (int, error) {
		reg.Counter("test.attempts", "attempts").Inc()
		if i == 3 && failed.CompareAndSwap(false, true) {
			return 0, errors.New("transient")
		}
		return i, nil
	}
	reg := metrics.NewRegistry()
	out, err := Map(context.Background(), Config{Jobs: 2, Metrics: reg}, 8, flaky)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 8 || out[3] != 3 {
		t.Fatalf("unexpected results %v", out)
	}
	// 8 successful attempts recorded; the failed attempt's increment
	// stayed in its discarded scratch registry.
	if got := reg.Counter("test.attempts", "").Value(); got != 8 {
		t.Errorf("attempts counter = %d, want 8 (failed attempt must not leak)", got)
	}
}

// TestMapCancel: cancelling the context stops the map and surfaces
// context.Canceled.
func TestMapCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	block := func(ctx context.Context, i int, _ *metrics.Registry) (int, error) {
		started <- struct{}{}
		<-ctx.Done()
		return 0, ctx.Err()
	}
	done := make(chan error, 1)
	go func() {
		_, err := Map(ctx, Config{Jobs: 4, Retries: -1}, 64, block)
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMapDeadlineNeverPartial: a deadline that expires mid-map is an
// error, never a success with zero-filled outputs — even though the
// items ignore ctx and every item that started finishes normally. With
// 200 items of at least 1ms, some worker of 8 sleeps through 25 of
// them in sequence, so the 20ms deadline always fires first.
func TestMapDeadlineNeverPartial(t *testing.T) {
	sleep := func(_ context.Context, i int, _ *metrics.Registry) (int, error) {
		time.Sleep(time.Millisecond)
		return i + 1, nil
	}
	for _, jobs := range []int{2, 8} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		out, err := Map(ctx, Config{Jobs: jobs}, 200, sleep)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("jobs=%d: err = %v, want context.DeadlineExceeded", jobs, err)
		}
		if out != nil {
			t.Errorf("jobs=%d: partial results returned alongside err = %v", jobs, err)
		}
	}
}

// TestMapEmpty: zero items is a successful no-op.
func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), Config{Jobs: 8}, 0, item)
	if err != nil || len(out) != 0 {
		t.Fatalf("got (%v, %v), want empty success", out, err)
	}
	if _, err := Map(context.Background(), Config{}, -1, item); err == nil {
		t.Fatal("negative count accepted")
	}
}

// TestRefreshDerivedGauges: after a merge leaves a ratio gauge at one
// worker's partial value, the refresh restores the totals-derived
// value the sequential publishers would have left.
func TestRefreshDerivedGauges(t *testing.T) {
	pub := func(_ context.Context, i int, reg *metrics.Registry) (int, error) {
		// Mimic cpu.publishRun / mem.hitRateGauge: counters plus a
		// gauge derived from this registry's (partial) totals.
		c := reg.Counter("cpu.cycles", "simulated cycles")
		r := reg.Counter("cpu.commit.retired", "instructions committed")
		c.Add(100)
		r.Add(uint64(10 + i))
		reg.Gauge("cpu.ipc", "ipc").Set(float64(r.Value()) / float64(c.Value()))
		h := reg.Counter("mem.l1d.hits", "hits")
		m := reg.Counter("mem.l1d.misses", "misses")
		h.Add(uint64(3 * (i + 1)))
		m.Add(1)
		reg.Gauge("mem.l1d.hit_rate", "hits / (hits+misses)").
			Set(float64(h.Value()) / float64(h.Value()+m.Value()))
		p := reg.Counter("pred.lvp.correct", "correct")
		w := reg.Counter("pred.lvp.mispredicts", "wrong")
		p.Add(uint64(i))
		w.Add(1)
		if v := p.Value() + w.Value(); v > 0 {
			reg.Gauge("pred.lvp.accuracy", "accuracy").Set(float64(p.Value()) / float64(v))
		}
		return 0, nil
	}
	seq := metrics.NewRegistry()
	if _, err := Map(context.Background(), Config{Jobs: 1, Metrics: seq}, 6, pub); err != nil {
		t.Fatal(err)
	}
	par := metrics.NewRegistry()
	if _, err := Map(context.Background(), Config{Jobs: 3, Metrics: par}, 6, pub); err != nil {
		t.Fatal(err)
	}
	j1, err := seq.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := par.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Errorf("parallel gauges differ from sequential:\n%s\nvs\n%s", j1, j2)
	}
}

// TestMapNilMetrics: with no shared registry, items see a nil registry
// on every path.
func TestMapNilMetrics(t *testing.T) {
	saw := func(_ context.Context, i int, reg *metrics.Registry) (bool, error) {
		if reg != nil {
			return false, fmt.Errorf("item %d: non-nil registry without cfg.Metrics", i)
		}
		return true, nil
	}
	for _, jobs := range []int{1, 4} {
		if _, err := Map(context.Background(), Config{Jobs: jobs}, 8, saw); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
	}
}
