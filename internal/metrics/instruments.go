package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. The cell holds raw units
// (e.g. nanoseconds for a duration counter); scale converts to the exposed
// unit at scrape time so the hot path never touches floats.
type Counter struct {
	name   string
	help   string
	scale  float64
	labels []Label
	v      atomic.Uint64
}

// NewCounter registers a counter in the default registry. By convention the
// name ends in _total.
func NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help, scale: 1}
	Default().MustRegister(c)
	return c
}

// NewDurationCounter registers a counter that accumulates nanoseconds and
// exposes seconds. By convention the name ends in _seconds_total.
func NewDurationCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help, scale: 1e-9}
	Default().MustRegister(c)
	return c
}

// Inc adds 1.
func (c *Counter) Inc() {
	if !on() {
		return
	}
	c.v.Add(1)
}

// Add adds n raw units.
func (c *Counter) Add(n uint64) {
	if !on() {
		return
	}
	c.v.Add(n)
}

// AddDuration adds d to a duration counter.
func (c *Counter) AddDuration(d time.Duration) {
	if !on() {
		return
	}
	if d < 0 {
		d = 0
	}
	c.v.Add(uint64(d))
}

// Value returns the raw (unscaled) cell value.
func (c *Counter) Value() uint64 { return c.v.Load() }

// FamilyName implements Metric.
func (c *Counter) FamilyName() string { return c.name }

func (c *Counter) expose(w *Writer) {
	w.Family(c.name, c.help, "counter")
	w.Sample(c.name, float64(c.v.Load())*c.scale, c.labels...)
}

// Gauge is a value that can go up and down (resident bytes, in-flight
// requests, pinned snapshots).
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// NewGauge registers a gauge in the default registry.
func NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	Default().MustRegister(g)
	return g
}

// Inc adds 1.
func (g *Gauge) Inc() {
	if !on() {
		return
	}
	g.v.Add(1)
}

// Dec subtracts 1.
func (g *Gauge) Dec() {
	if !on() {
		return
	}
	g.v.Add(-1)
}

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if !on() {
		return
	}
	g.v.Add(n)
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if !on() {
		return
	}
	g.v.Store(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FamilyName implements Metric.
func (g *Gauge) FamilyName() string { return g.name }

func (g *Gauge) expose(w *Writer) {
	w.Family(g.name, g.help, "gauge")
	w.Sample(g.name, float64(g.v.Load()))
}

// GaugeFunc is a gauge whose value is computed at scrape time. The callback
// must be cheap and must not block on the hot path's locks.
type GaugeFunc struct {
	name string
	help string
	fn   func() float64
}

// NewGaugeFunc registers a scrape-time gauge in the default registry.
func NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{name: name, help: help, fn: fn}
	Default().MustRegister(g)
	return g
}

// FamilyName implements Metric.
func (g *GaugeFunc) FamilyName() string { return g.name }

func (g *GaugeFunc) expose(w *Writer) {
	w.Family(g.name, g.help, "gauge")
	w.Sample(g.name, g.fn())
}

// Histogram is a fixed-bucket distribution. Bounds are raw units sorted
// ascending (each bucket is ≤ bound); one extra cell catches +Inf. Observe
// is a linear scan over at most ~16 bounds plus three atomic adds — no
// locks, no allocation, no floats.
type Histogram struct {
	name   string
	help   string
	scale  float64
	bounds []uint64
	labels []Label
	cells  []atomic.Uint64 // len(bounds)+1, last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // raw units
}

func newHistogram(name, help string, scale float64, bounds []uint64) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %s needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s bounds not strictly ascending", name))
		}
	}
	return &Histogram{
		name:   name,
		help:   help,
		scale:  scale,
		bounds: bounds,
		cells:  make([]atomic.Uint64, len(bounds)+1),
	}
}

// NewHistogram registers a histogram over raw-unit bounds (scale converts
// raw units to the exposed unit at scrape time).
func NewHistogram(name, help string, scale float64, bounds []uint64) *Histogram {
	h := newHistogram(name, help, scale, bounds)
	Default().MustRegister(h)
	return h
}

// NewDurationHistogram registers a latency histogram: cells count
// nanoseconds, exposition is seconds. By convention the name ends in
// _seconds.
func NewDurationHistogram(name, help string, bounds ...time.Duration) *Histogram {
	raw := make([]uint64, len(bounds))
	for i, b := range bounds {
		raw[i] = uint64(b)
	}
	h := newHistogram(name, help, 1e-9, raw)
	Default().MustRegister(h)
	return h
}

// DefBuckets is the default latency ladder: 50µs to ~3.3s, ×2 per step.
// Wide enough for activation tails and fsync stalls, fine enough at the
// bottom for lock-free query descents.
var DefBuckets = []time.Duration{
	50 * time.Microsecond, 100 * time.Microsecond, 200 * time.Microsecond,
	400 * time.Microsecond, 800 * time.Microsecond,
	1600 * time.Microsecond, 3200 * time.Microsecond, 6400 * time.Microsecond,
	12800 * time.Microsecond, 25600 * time.Microsecond, 51200 * time.Microsecond,
	102400 * time.Microsecond, 204800 * time.Microsecond, 409600 * time.Microsecond,
	819200 * time.Microsecond, 1638400 * time.Microsecond, 3276800 * time.Microsecond,
}

// Observe records one raw-unit observation.
func (h *Histogram) Observe(raw uint64) {
	if !on() {
		return
	}
	i := 0
	for i < len(h.bounds) && raw > h.bounds[i] {
		i++
	}
	h.cells[i].Add(1)
	h.count.Add(1)
	h.sum.Add(raw)
}

// ObserveDuration records one duration observation.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// ObserveSince records time.Since(start).
func (h *Histogram) ObserveSince(start time.Time) {
	h.ObserveDuration(time.Since(start))
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// FamilyName implements Metric.
func (h *Histogram) FamilyName() string { return h.name }

func (h *Histogram) expose(w *Writer) {
	w.Family(h.name, h.help, "histogram")
	h.exposeSamples(w)
}

// exposeSamples writes the cumulative bucket/sum/count lines (shared with
// HistogramVec, which writes the family header once for all children).
func (h *Histogram) exposeSamples(w *Writer) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.cells[i].Load()
		w.Bucket(h.name, formatValue(float64(b)*h.scale), float64(cum), h.labels...)
	}
	cum += h.cells[len(h.bounds)].Load()
	w.Bucket(h.name, "+Inf", float64(cum), h.labels...)
	w.Sample(h.name+"_sum", float64(h.sum.Load())*h.scale, h.labels...)
	w.Sample(h.name+"_count", float64(h.count.Load()), h.labels...)
}

// CounterVec is a counter family with one label whose values are fixed at
// registration; With returns the pre-built child, so labeled recording is
// as cheap as unlabeled.
type CounterVec struct {
	name     string
	help     string
	label    string
	children []*Counter
	index    map[string]*Counter
}

// NewCounterVec registers a counter family keyed by one label with a fixed
// value set.
func NewCounterVec(name, help, label string, values ...string) *CounterVec {
	mustCheckName(label)
	if len(values) == 0 {
		panic(fmt.Sprintf("metrics: counter vec %s needs at least one label value", name))
	}
	v := &CounterVec{name: name, help: help, label: label, index: make(map[string]*Counter, len(values))}
	for _, val := range values {
		if _, dup := v.index[val]; dup {
			panic(fmt.Sprintf("metrics: counter vec %s duplicate label value %q", name, val))
		}
		c := &Counter{name: name, help: help, scale: 1, labels: []Label{{label, val}}}
		v.children = append(v.children, c)
		v.index[val] = c
	}
	Default().MustRegister(v)
	return v
}

// With returns the child for a registered label value, panicking on an
// unknown one (fixed cardinality is the contract).
func (v *CounterVec) With(value string) *Counter {
	c, ok := v.index[value]
	if !ok {
		panic(fmt.Sprintf("metrics: counter vec %s has no label value %q", v.name, value))
	}
	return c
}

// FamilyName implements Metric.
func (v *CounterVec) FamilyName() string { return v.name }

func (v *CounterVec) expose(w *Writer) {
	w.Family(v.name, v.help, "counter")
	for _, c := range v.children {
		w.Sample(c.name, float64(c.v.Load())*c.scale, c.labels...)
	}
}

// HistogramVec is a histogram family with one fixed-value label; all
// children share the same bounds.
type HistogramVec struct {
	name     string
	help     string
	label    string
	children []*Histogram
	index    map[string]*Histogram
}

// NewDurationHistogramVec registers a latency histogram family keyed by one
// label with a fixed value set.
func NewDurationHistogramVec(name, help, label string, values []string, bounds ...time.Duration) *HistogramVec {
	raw := make([]uint64, len(bounds))
	for i, b := range bounds {
		raw[i] = uint64(b)
	}
	return NewHistogramVec(name, help, label, values, 1e-9, raw)
}

// NewHistogramVec registers a histogram family over raw-unit bounds (scale
// converts raw units to the exposed unit at scrape time) keyed by one label
// with a fixed value set.
func NewHistogramVec(name, help, label string, values []string, scale float64, bounds []uint64) *HistogramVec {
	mustCheckName(label)
	if len(values) == 0 {
		panic(fmt.Sprintf("metrics: histogram vec %s needs at least one label value", name))
	}
	v := &HistogramVec{name: name, help: help, label: label, index: make(map[string]*Histogram, len(values))}
	for _, val := range values {
		if _, dup := v.index[val]; dup {
			panic(fmt.Sprintf("metrics: histogram vec %s duplicate label value %q", name, val))
		}
		h := newHistogram(name, help, scale, bounds)
		h.labels = []Label{{label, val}}
		v.children = append(v.children, h)
		v.index[val] = h
	}
	Default().MustRegister(v)
	return v
}

// With returns the child for a registered label value, panicking on an
// unknown one.
func (v *HistogramVec) With(value string) *Histogram {
	h, ok := v.index[value]
	if !ok {
		panic(fmt.Sprintf("metrics: histogram vec %s has no label value %q", v.name, value))
	}
	return h
}

// FamilyName implements Metric.
func (v *HistogramVec) FamilyName() string { return v.name }

func (v *HistogramVec) expose(w *Writer) {
	w.Family(v.name, v.help, "histogram")
	for _, h := range v.children {
		h.exposeSamples(w)
	}
}
