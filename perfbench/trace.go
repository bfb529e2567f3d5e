package main

import (
	"sync/atomic"
	"time"

	"vpsec/internal/obs"
)

// layerSink folds the program's span stream into per-layer totals as
// events arrive. A paper-sweep pass emits over a million events, so the
// sink keeps only the spans still open plus one total per span name.
//
// Self time is computed per timeline lane: a span's self time is its
// duration minus the durations of the spans opened inside it on the
// same lane. Spans on one lane run on one goroutine, so they nest
// strictly; a runner worker's lane is its own, which keeps concurrent
// trials from being subtracted from the feeder's "map" span. The
// self times of all spans nested in a root span therefore sum to that
// root span's duration.
//
// The tracer serializes Emit, so the sink needs no lock of its own.
type layerSink struct {
	open  map[uint64]*openSpan
	lanes map[int][]uint64 // open span ids per lane, innermost last

	spans map[string]*spanTotal // by span name
	kinds map[string]time.Duration

	items     int           // work items announced by "map" spans
	capacity  time.Duration // Σ map duration × jobs
	queueWait time.Duration // Σ trial queue wait on parallel maps
	retries   int
	events    int
}

type openSpan struct {
	name  string
	kind  string // scenario kind, for "scenario" spans
	jobs  int    // worker count, for "map" spans
	start time.Duration
	child time.Duration // time covered by spans nested on the same lane
}

// spanTotal is the aggregate of every span with one name.
type spanTotal struct {
	total time.Duration // Σ duration
	self  time.Duration // Σ self time
}

func newLayerSink() *layerSink {
	return &layerSink{
		open:  make(map[uint64]*openSpan),
		lanes: make(map[int][]uint64),
		spans: make(map[string]*spanTotal),
		kinds: make(map[string]time.Duration),
	}
}

// Emit folds one event into the totals.
func (s *layerSink) Emit(e obs.Event) {
	s.events++
	switch e.Ph {
	case obs.PhaseBegin:
		o := &openSpan{name: e.Name, start: e.TS}
		for _, a := range e.Attrs {
			switch {
			case e.Name == "scenario" && a.Key == "kind":
				o.kind, _ = a.Val.(string)
			case e.Name == "map" && a.Key == "items":
				n, _ := a.Val.(int)
				s.items += n
			case e.Name == "map" && a.Key == "jobs":
				o.jobs, _ = a.Val.(int)
			case e.Name == "trial" && a.Key == "queue_us":
				us, _ := a.Val.(float64)
				s.queueWait += time.Duration(us * 1e3)
			}
		}
		s.open[e.Span] = o
		s.lanes[e.TID] = append(s.lanes[e.TID], e.Span)
	case obs.PhaseEnd:
		o, ok := s.open[e.Span]
		if !ok {
			return
		}
		delete(s.open, e.Span)
		stack := s.lanes[e.TID]
		at := len(stack) - 1
		for at >= 0 && stack[at] != e.Span {
			at--
		}
		if at < 0 {
			return
		}
		s.lanes[e.TID] = append(stack[:at], stack[at+1:]...)
		dur := e.TS - o.start
		if at > 0 {
			if p := s.open[stack[at-1]]; p != nil {
				p.child += dur
			}
		}
		t := s.spans[o.name]
		if t == nil {
			t = &spanTotal{}
			s.spans[o.name] = t
		}
		t.total += dur
		t.self += dur - o.child
		switch o.name {
		case "scenario":
			s.kinds[o.kind] += dur
		case "map":
			s.capacity += dur * time.Duration(max(o.jobs, 1))
		}
	case obs.PhaseInstant:
		if e.Name == "retry" {
			s.retries++
		}
	}
}

// Close satisfies obs.Sink.
func (s *layerSink) Close() error { return nil }

// self returns the summed self time of the named spans.
func (s *layerSink) self(name string) time.Duration {
	if t := s.spans[name]; t != nil {
		return t.self
	}
	return 0
}

// total returns the summed duration of the named spans.
func (s *layerSink) total(name string) time.Duration {
	if t := s.spans[name]; t != nil {
		return t.total
	}
	return 0
}

// merge adds o's totals into s (summing traced passes).
func (s *layerSink) merge(o *layerSink) {
	for name, t := range o.spans {
		d := s.spans[name]
		if d == nil {
			d = &spanTotal{}
			s.spans[name] = d
		}
		d.total += t.total
		d.self += t.self
	}
	for k, d := range o.kinds {
		s.kinds[k] += d
	}
	s.items += o.items
	s.capacity += o.capacity
	s.queueWait += o.queueWait
	s.retries += o.retries
	s.events += o.events
}

// callTimer accumulates the time and count of calls the benchmark
// wraps at a layer boundary the program has no span for (the server's
// handler and result store). Safe for concurrent use.
type callTimer struct {
	ns, n atomic.Int64
}

func (c *callTimer) add(d time.Duration) {
	c.ns.Add(int64(d))
	c.n.Add(1)
}

func (c *callTimer) merge(o *callTimer) {
	c.ns.Add(o.ns.Load())
	c.n.Add(o.n.Load())
}

func (c *callTimer) total() time.Duration { return time.Duration(c.ns.Load()) }

// meanUS is the mean call time in microseconds, 0 before any call.
func (c *callTimer) meanUS() float64 {
	n := c.n.Load()
	if n == 0 {
		return 0
	}
	return float64(c.ns.Load()) / float64(n) / 1e3
}
