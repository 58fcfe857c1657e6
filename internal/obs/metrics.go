package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a run's metric instruments. Lookup (Counter, Gauge,
// Histogram) takes a mutex and is meant for setup and per-stage call
// sites; the instruments themselves update with single atomic operations
// and are safe on warm paths. Event-loop hot paths (//cisp:hotpath) keep
// plain local counters and publish once per run.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// canonLabels validates and canonicalizes a variadic key-value label list:
// pairs sorted by key, so every call-site ordering maps to one instrument.
func canonLabels(kv []string) []string {
	if len(kv) == 0 {
		return nil
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label list, want key-value pairs")
	}
	n := len(kv) / 2
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return kv[2*idx[a]] < kv[2*idx[b]] })
	out := make([]string, 0, len(kv))
	for _, i := range idx {
		out = append(out, kv[2*i], kv[2*i+1])
	}
	return out
}

// instKey builds the registry map key for (name, canonical labels).
func instKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	return name + "\xff" + strings.Join(labels, "\xff")
}

// Counter is a monotonically increasing int64. Methods are atomic and
// nil-safe (a nil counter — disabled registry — is a no-op).
type Counter struct {
	name   string
	labels []string
	v      atomic.Int64
}

// Counter returns the counter for (name, labels), creating it on first
// use. Nil-safe: a nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	labels := canonLabels(kv)
	k := instKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[k]
	if c == nil {
		c = &Counter{name: name, labels: labels}
		r.counters[k] = c
	}
	return c
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down, stored as atomic bits.
type Gauge struct {
	name   string
	labels []string
	bits   atomic.Uint64
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	if r == nil {
		return nil
	}
	labels := canonLabels(kv)
	k := instKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[k]
	if g == nil {
		g = &Gauge{name: name, labels: labels}
		r.gauges[k] = g
	}
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds v to the gauge (CAS loop).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// SetMax raises the gauge to v if v exceeds its current value — a
// high-water mark across concurrent writers.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets are the default histogram bucket upper bounds, in seconds:
// wide enough to cover a sub-millisecond LP solve and a minute-long
// figure stage in one scheme.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram counts observations in fixed buckets (upper-bound inclusive,
// Prometheus "le" semantics) plus an implicit +Inf bucket, with an exact
// sum and count. Observe is two atomic adds and one CAS loop.
type Histogram struct {
	name    string
	labels  []string
	uppers  []float64 // ascending finite upper bounds
	counts  []atomic.Int64
	inf     atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
}

// Histogram returns the default-bucket histogram for (name, labels),
// creating it on first use.
func (r *Registry) Histogram(name string, kv ...string) *Histogram {
	return r.HistogramBuckets(name, DefBuckets, kv...)
}

// HistogramBuckets returns the histogram for (name, labels) with the
// given finite upper bounds (ascending; +Inf is implicit), creating it on
// first use. Buckets are fixed at creation: later calls with different
// bounds return the existing instrument.
func (r *Registry) HistogramBuckets(name string, uppers []float64, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	labels := canonLabels(kv)
	k := instKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[k]
	if h == nil {
		up := append([]float64(nil), uppers...)
		sort.Float64s(up)
		h = &Histogram{name: name, labels: labels, uppers: up, counts: make([]atomic.Int64, len(up))}
		r.hists[k] = h
	}
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.uppers, v) // first upper >= v: le is inclusive
	if i < len(h.uppers) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot collects every instrument sorted by (name, labels) for the
// deterministic encoders in prom.go. Values are read after the sort, so
// an export is a near-consistent cut.
type snapshot struct {
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
}

func (r *Registry) snapshot() snapshot {
	var s snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	for _, c := range r.counters {
		s.counters = append(s.counters, c) //lint:allow maporder -- sorted by (name, labels) below before any output
	}
	for _, g := range r.gauges {
		s.gauges = append(s.gauges, g) //lint:allow maporder -- sorted by (name, labels) below before any output
	}
	for _, h := range r.hists {
		s.hists = append(s.hists, h) //lint:allow maporder -- sorted by (name, labels) below before any output
	}
	r.mu.Unlock()
	sort.Slice(s.counters, func(a, b int) bool {
		return instLess(s.counters[a].name, s.counters[a].labels, s.counters[b].name, s.counters[b].labels)
	})
	sort.Slice(s.gauges, func(a, b int) bool {
		return instLess(s.gauges[a].name, s.gauges[a].labels, s.gauges[b].name, s.gauges[b].labels)
	})
	sort.Slice(s.hists, func(a, b int) bool {
		return instLess(s.hists[a].name, s.hists[a].labels, s.hists[b].name, s.hists[b].labels)
	})
	return s
}

func instLess(an string, al []string, bn string, bl []string) bool {
	if an != bn {
		return an < bn
	}
	return strings.Join(al, "\xff") < strings.Join(bl, "\xff")
}
