package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vpsec/internal/metrics"
	"vpsec/internal/scenario"
	"vpsec/internal/server"
)

// serveSpecs are the scenarios served cold and hot: every registered
// single-case entry, the kinds a client submits one request at a time.
func serveSpecs() []scenario.Spec {
	return registrySpecs(func(k scenario.Kind) bool {
		switch k {
		case scenario.KindCacheBench, scenario.KindCase, scenario.KindVariant,
			scenario.KindEviction, scenario.KindSMT:
			return true
		}
		return false
	})
}

// hotRounds is how many seeded permutations of the cold requests the
// hot phase re-submits.
const hotRounds = 10

// serve drives an in-process vpserver on a loopback listener with
// closed-loop clients: each client sends its next request only when the
// previous reply has arrived. A pass starts a fresh server, so the cold
// phase always finds an empty store.
type serve struct {
	in      inputs
	hot     []int    // hot-phase request order: indices into in.specs
	bodies  [][]byte // POST /v1/jobs payload per spec
	clients int
}

func newServe(specs []scenario.Spec, seed int64) (*serve, error) {
	w := &serve{in: makeInputs(specs, seed, 0), clients: runtime.NumCPU()}
	rng := newRand(seed + 1)
	for r := 0; r < hotRounds; r++ {
		w.hot = append(w.hot, rng.Perm(len(specs))...)
	}
	for _, s := range w.in.specs {
		b, err := submitBody(s)
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, b)
	}
	return w, nil
}

// submitBody is a synchronous submission of an inline spec. Inline
// specs, not registry names, carry the workload seed's offset.
func submitBody(s scenario.Spec) ([]byte, error) {
	spec, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Spec json.RawMessage `json:"spec"`
		Wait bool            `json:"wait"`
	}{spec, true})
}

// setup starts a server, sends one warm-up request per kind at a small
// trial count and repeats it as a hit, then stops the server.
func (w *serve) setup(ctx context.Context) error {
	sut, err := startServer(false)
	if err != nil {
		return err
	}
	defer sut.stop()
	seen := map[scenario.Kind]bool{}
	for _, i := range w.in.order {
		s := w.in.specs[i]
		if seen[s.Kind] {
			continue
		}
		seen[s.Kind] = true
		s.Runs = warmupRuns
		body, err := submitBody(s)
		if err != nil {
			return err
		}
		for _, want := range []string{server.CacheMiss, server.CacheHit} {
			if _, err := sut.submit(ctx, body, want); err != nil {
				return fmt.Errorf("warm-up %s: %w", s.Name, err)
			}
		}
	}
	return sut.stop()
}

func (w *serve) run(ctx context.Context, m mode) (*pass, error) {
	sut, err := startServer(m == traced)
	if err != nil {
		return nil, err
	}
	defer sut.stop()
	p := &pass{out: make([][]byte, len(w.in.specs))}
	heap := sampleHeap()

	t0 := time.Now()
	cold, coldFailed := w.phase(ctx, sut, w.in.order, func(i int, result []byte) error {
		p.out[i] = result
		return nil
	}, server.CacheMiss)
	coldWall := time.Since(t0)

	t0 = time.Now()
	hot, hotFailed := w.phase(ctx, sut, w.hot, func(i int, result []byte) error {
		if !bytes.Equal(result, p.out[i]) {
			return fmt.Errorf("hit bytes differ from the cold reply")
		}
		return nil
	}, server.CacheHit)
	hotWall := time.Since(t0)

	p.peakHeap = heap.stop()
	p.wall = coldWall + hotWall
	p.ops, p.coldN = append(cold, hot...), len(cold)
	p.failed = coldFailed + hotFailed
	p.work, p.workTime, p.workName = float64(len(hot)), hotWall, "hot_rps"
	if err := sut.stop(); err != nil {
		return nil, err
	}
	if m == traced {
		// The server runs its jobs untraced: its pass has no spans and
		// no simulated counters, only the server's own layers.
		p.server, p.layers, p.reg = sut.layers(), newLayerSink(), metrics.NewRegistry()
	}
	return p, nil
}

// phase sends the requests in order from w.clients closed-loop clients
// and returns each request's latency, in order, and the number that
// failed. check sees each reply's result bytes; want is the cache
// disposition every reply must report.
func (w *serve) phase(ctx context.Context, sut *serverUnderTest, order []int, check func(i int, result []byte) error, want string) ([]time.Duration, int) {
	lat := make([]time.Duration, len(order))
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w.clients)
	for c := 0; c < w.clients; c++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(order) {
					return
				}
				i := order[k]
				t0 := time.Now()
				result, err := sut.submit(ctx, w.bodies[i], want)
				lat[k] = time.Since(t0)
				if err == nil {
					err = check(i, result)
				}
				if err != nil {
					failed.Add(1)
					warnf("%s: %v", w.in.specs[i].Name, err)
				}
			}
		}()
	}
	wg.Wait()
	return lat, int(failed.Load())
}

// serverUnderTest is one vpserver instance on a loopback listener.
type serverUnderTest struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	reg    *metrics.Registry

	stopOnce sync.Once
	stopErr  error

	// Traced instances only: time in the handler and the store.
	timed *serverLayers
}

// startServer runs the program's default serving configuration: one
// worker per core, sequential trials inside each job, an in-memory
// store. traced wraps the handler and the store in call timers.
func startServer(traced bool) (*serverUnderTest, error) {
	sut := &serverUnderTest{reg: metrics.NewRegistry(), served: make(chan error, 1)}
	var store server.Store = server.NewMemStore()
	if traced {
		sut.timed = &serverLayers{}
		store = &timedStore{Store: store, get: &sut.timed.get, put: &sut.timed.put}
	}
	sut.srv = server.New(server.Config{
		Workers:   runtime.NumCPU(),
		TrialJobs: 1,
		Store:     store,
		Metrics:   sut.reg,
	})
	var h http.Handler = sut.srv
	if traced {
		h = timedHandler{next: sut.srv, t: &sut.timed.submit}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sut.srv.Shutdown(context.Background())
		return nil, err
	}
	sut.url = "http://" + ln.Addr().String() + "/v1/jobs"
	sut.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { sut.served <- sut.hs.Serve(ln) }()
	n := runtime.NumCPU()
	sut.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: n,
		MaxConnsPerHost:     n,
		DisableCompression:  true,
	}}
	return sut, nil
}

// stop closes the listener and connections, drains the server's
// workers, and waits for the serve loop to return. Repeat calls
// return the first result.
func (s *serverUnderTest) stop() error {
	s.stopOnce.Do(func() {
		s.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := s.hs.Shutdown(ctx)
		if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		if derr := s.srv.Shutdown(ctx); err == nil {
			err = derr
		}
		s.stopErr = err
	})
	return s.stopErr
}

// jobReply is the part of the server's job view the clients check.
type jobReply struct {
	State  string          `json:"state"`
	Cache  string          `json:"cache"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// submit posts one synchronous submission and returns the result bytes
// of a finished job whose cache disposition is want. A refusal (429,
// 503), any other status, or a wrong disposition is an error.
func (s *serverUnderTest) submit(ctx context.Context, body []byte, want string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var r jobReply
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if r.State != string(server.StateDone) || r.Cache != want {
		return nil, fmt.Errorf("job %s with cache %q, want done with %q (%s)", r.State, r.Cache, want, r.Error)
	}
	return r.Result, nil
}

// serverLayers is the server's share of a traced serve pass.
type serverLayers struct {
	submitted, hits, rejected uint64
	submit, get, put          callTimer
}

// merge adds o's counts and times into s.
func (s *serverLayers) merge(o *serverLayers) {
	s.submitted += o.submitted
	s.hits += o.hits
	s.rejected += o.rejected
	s.submit.merge(&o.submit)
	s.get.merge(&o.get)
	s.put.merge(&o.put)
}

// layers returns the traced instance's call times with the server's
// own counters; call after stop.
func (s *serverUnderTest) layers() *serverLayers {
	c := func(name string) uint64 { return s.reg.Counter(name, "").Value() }
	s.timed.submitted = c("server.jobs.submitted")
	s.timed.hits = c("server.cache.hits")
	s.timed.rejected = c("server.rejected.queue_full") + c("server.rejected.client_limit")
	return s.timed
}

// timedStore times the result store's reads and writes.
type timedStore struct {
	server.Store
	get, put *callTimer
}

func (s *timedStore) Get(key string) ([]byte, bool) {
	t0 := time.Now()
	data, ok := s.Store.Get(key)
	s.get.add(time.Since(t0))
	return data, ok
}

func (s *timedStore) Put(key string, data []byte) error {
	t0 := time.Now()
	err := s.Store.Put(key, data)
	s.put.add(time.Since(t0))
	return err
}

// timedHandler times the server's handling of job submissions.
type timedHandler struct {
	next http.Handler
	t    *callTimer
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	h.t.add(time.Since(t0))
}
