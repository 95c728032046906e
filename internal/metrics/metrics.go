// Package metrics is a minimal, dependency-free instrumentation
// library: counters, gauges, and histograms registered in a Registry
// and exposed in the Prometheus text format (version 0.0.4). It
// implements just what the spec17d server needs — monotonic counters
// (optionally labelled), gauges, and cumulative-bucket histograms —
// with lock-free hot paths so instrumented request handling stays
// cheap under concurrency.
package metrics

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Counter is a monotonically increasing value.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v, which must be non-negative; negative deltas are dropped
// (counters are monotonic by definition).
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Add adds v (which may be negative).
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram accumulates observations into cumulative buckets, exposed
// Prometheus-style as name_bucket{le="..."} plus name_sum/name_count.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // sorted upper bounds, +Inf implicit
	buckets []uint64  // non-cumulative per-bound counts
	sum     float64
	count   uint64
}

// Observe records one observation. NaN observations are dropped and
// negative ones clamped to zero: both arise in practice from failed
// timers and clock steps, and either would silently corrupt sum (NaN
// poisons it forever; negatives walk it backwards) while the buckets
// kept counting — an exposition no aggregator can repair.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	// First bucket whose upper bound contains v; the implicit +Inf
	// bucket (index len(bounds)) catches the rest.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i]++
	h.sum += v
	h.count++
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations so far.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot returns a self-consistent copy of the histogram state:
// buckets, sum, and count captured under one lock acquisition, so an
// exposition rendered from it always satisfies the histogram
// invariants (sum of buckets == count) even while observations land
// concurrently.
func (h *Histogram) snapshot() (buckets []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.buckets...), h.sum, h.count
}

// DefBuckets are latency-shaped default histogram bounds, in seconds.
var DefBuckets = []float64{
	.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30,
}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one named metric with zero or more labelled series.
type family struct {
	name   string
	help   string
	typ    string
	labels []string
	bounds []float64 // histograms only

	mu     sync.Mutex
	series map[string]any // label-values key -> *Counter/*Gauge/*Histogram
	order  []string       // insertion order of keys
}

// Registry holds metric families and renders them as Prometheus text.
// All methods are safe for concurrent use. Registration methods panic
// on invalid or conflicting definitions — metric identity is a
// programming-time property, not an input.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) register(name, help, typ string, labels []string, bounds []float64) *family {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelRe.MatchString(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || !slices.Equal(f.labels, labels) {
			panic(fmt.Sprintf("metrics: %q re-registered with a different type or label set", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels: append([]string(nil), labels...),
		bounds: bounds,
		series: make(map[string]any),
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// get returns the series for the given label values, creating it with
// mk on first use.
func (f *family) get(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q expects %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, typeCounter, nil, nil)
	return f.get(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, typeCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, typeGauge, nil, nil)
	return f.get(nil, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram registers (or fetches) an unlabelled histogram with the
// given bucket upper bounds (nil = DefBuckets). Bounds must be sorted
// strictly increasing.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	bounds = checkBounds(name, bounds)
	f := r.register(name, help, typeHistogram, nil, bounds)
	return f.get(nil, func() any { return newHistogram(bounds) }).(*Histogram)
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	bounds = checkBounds(name, bounds)
	return &HistogramVec{r.register(name, help, typeHistogram, labels, bounds)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values, func() any { return newHistogram(v.f.bounds) }).(*Histogram)
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:  bounds,
		buckets: make([]uint64, len(bounds)+1),
	}
}

func checkBounds(name string, bounds []float64) []float64 {
	if bounds == nil {
		return DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %q bucket bounds not strictly increasing", name))
		}
	}
	return append([]float64(nil), bounds...)
}

// WritePrometheus renders Snapshot's families, in registration order,
// as Prometheus text exposition format; families with no series are
// left out.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.Snapshot() {
		if len(f.Series) == 0 {
			continue
		}
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Series {
			labels := labelString(f.LabelNames, s.LabelValues, "", 0)
			if f.Type != typeHistogram {
				fmt.Fprintf(&b, "%s%s %s\n", f.Name, labels, formatFloat(s.Value))
				continue
			}
			cum := uint64(0)
			for i, n := range s.Buckets {
				cum += n
				bound := math.Inf(1)
				if i < len(f.Bounds) {
					bound = f.Bounds[i]
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.Name,
					labelString(f.LabelNames, s.LabelValues, "le", bound), cum)
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.Name, labels, formatFloat(s.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.Name, labels, s.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// labelString renders {k="v",...}, optionally with a trailing le bound
// for histogram buckets. Empty when there are no labels at all.
func labelString(names, values []string, le string, bound float64) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var parts []string
	for i, n := range names {
		// %q escaping (backslash, quote, newline) matches the
		// Prometheus label-value escaping rules.
		parts = append(parts, fmt.Sprintf("%s=%q", n, values[i]))
	}
	if le != "" {
		parts = append(parts, fmt.Sprintf("%s=%q", le, formatFloat(bound)))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
