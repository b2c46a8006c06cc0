// Package metrics is the repository's observability substrate: a tiny
// registry of atomically updated counters and gauges rendered in the
// Prometheus text exposition format. It exists so a long-running sweep
// or (eventually) the sweep service can be watched like infrastructure
// — scrape an HTTP endpoint, plot cache hit rate and events/sec — while
// the simulation hot paths pay exactly one predictable atomic add per
// observation and zero allocations.
//
// Instrumentation is strictly an observer: nothing in this package
// feeds back into simulation state, so a metrics-enabled run is
// bit-identical to a metrics-off run (a contract the sweep tests pin).
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// usable but unregistered; obtain registered counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metric is one registered series: a name, help text, Prometheus type
// and a sample function evaluated at render time.
type metric struct {
	name, help, typ string
	sample          func() string
}

// Registry holds a set of named metrics and renders them. Registration
// happens at setup time (panicking on duplicate names, a programming
// error); observation and rendering are safe concurrently.
type Registry struct {
	mu sync.Mutex
	ms map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ms: map[string]*metric{}}
}

func (r *Registry) register(name, help, typ string, sample func() string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.ms[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.ms[name] = &metric{name: name, help: help, typ: typ, sample: sample}
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", func() string {
		return strconv.FormatUint(c.Value(), 10)
	})
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", func() string {
		return strconv.FormatInt(g.Value(), 10)
	})
	return g
}

// CounterFunc registers a counter whose value is read at render time
// from a record the caller keeps, so the series cannot drift from it.
// fn must be safe to call concurrently and must never decrease.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, help, "counter", func() string {
		return strconv.FormatUint(fn(), 10)
	})
}

// GaugeFunc registers a gauge whose value is computed at render time —
// the shape for derived signals like cache hit rate or events/sec. fn
// must be safe to call concurrently; non-finite values render as 0.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", func() string {
		v := fn()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	})
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format, sorted by name so the output is
// deterministic for a given set of values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.ms))
	for name := range r.ms {
		names = append(names, name)
	}
	ms := make([]*metric, len(names))
	sort.Strings(names)
	for i, name := range names {
		ms[i] = r.ms[name]
	}
	r.mu.Unlock()
	for _, m := range ms {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
			m.name, m.help, m.name, m.typ, m.name, m.sample()); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an http.Handler serving the rendered registry — the
// /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
