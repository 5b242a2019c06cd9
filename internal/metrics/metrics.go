// Package metrics is a zero-dependency instrumentation kit: counters,
// gauges, and histograms that are safe for concurrent use (lock-free
// atomics on the update path), optional label vectors, and a Registry
// that renders everything in the Prometheus text exposition format
// (version 0.0.4). It is the backbone the server's GET /metrics
// endpoint and Reasoner.Metrics() snapshots read from.
//
// The update path is deliberately cheap — one atomic add for a counter,
// one atomic add plus a bucket index for a histogram — so instruments
// can sit on hot paths (the plain-BGP query loop holds its allocation
// budget with metrics enabled; see bench_test.go). Exposition walks the
// registry under a read lock and never blocks updates.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters only go up; callers must not pass a "negative"
// two's-complement delta.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into cumulative buckets and tracks
// their sum, Prometheus-style. Observe is lock-free: one atomic add on
// the bucket counter and a CAS loop on the float sum.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits of the running sum
	count  atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket lists are short (≤20) and the common case
	// lands early; a binary search would cost more in branches.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// DurationBuckets is the default latency bucket layout: 100µs to 10s,
// roughly exponential — wide enough for both sub-millisecond index
// probes and multi-second materializations.
func DurationBuckets() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// ---------------------------------------------------------------- vectors

// CounterVec is a family of counters partitioned by label values.
type CounterVec struct {
	labels   []string
	mu       sync.RWMutex
	children map[string]*vecChild[*Counter]
}

// HistogramVec is a family of histograms partitioned by label values.
type HistogramVec struct {
	labels   []string
	bounds   []float64
	mu       sync.RWMutex
	children map[string]*vecChild[*Histogram]
}

// vecChild pairs one child instrument with its rendered label values.
type vecChild[T any] struct {
	values []string
	m      T
}

// vecKey builds the lookup key for a label-value tuple. 0xFF cannot
// appear inside UTF-8 text, so values can never collide across
// positions.
func vecKey(values []string) string { return strings.Join(values, "\xff") }

// With returns the counter for the given label values, creating it on
// first use. The number of values must match the vector's label names.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %d label values for %d labels", len(values), len(v.labels)))
	}
	k := vecKey(values)
	v.mu.RLock()
	c, ok := v.children[k]
	v.mu.RUnlock()
	if ok {
		return c.m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[k]; ok {
		return c.m
	}
	child := &vecChild[*Counter]{values: append([]string(nil), values...), m: &Counter{}}
	v.children[k] = child
	return child.m
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %d label values for %d labels", len(values), len(v.labels)))
	}
	k := vecKey(values)
	v.mu.RLock()
	c, ok := v.children[k]
	v.mu.RUnlock()
	if ok {
		return c.m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[k]; ok {
		return c.m
	}
	child := &vecChild[*Histogram]{
		values: append([]string(nil), values...),
		m:      &Histogram{bounds: v.bounds, counts: make([]atomic.Uint64, len(v.bounds)+1)},
	}
	v.children[k] = child
	return child.m
}

// Each calls fn for every child counter with its label values.
func (v *CounterVec) Each(fn func(values []string, c *Counter)) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, c := range v.children {
		fn(c.values, c.m)
	}
}

// ---------------------------------------------------------------- registry

// family is one registered metric family.
type family struct {
	name string
	help string
	typ  string // "counter" | "gauge" | "histogram"

	counter *Counter
	gauge   *Gauge
	valueFn func() float64 // GaugeFunc / CounterFunc: read at scrape time
	hist    *Histogram

	counterVec *CounterVec
	histVec    *HistogramVec

	constLabels []string // alternating name, value — rendered on every sample

	// scale converts a counter vector's integer counts into the exposed
	// unit (see SecondsCounterVec).
	scale float64
}

// Registry holds metric families and renders them in the Prometheus
// text format. All methods are safe for concurrent use; registration
// of a duplicate or invalid name panics (a programming error, caught
// the first time the code path runs).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) add(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", f.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric %q", f.name))
	}
	r.families[f.name] = f
	r.order = append(r.order, f.name)
	sort.Strings(r.order)
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(&family{name: name, help: help, typ: "counter", counter: c})
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(&family{name: name, help: help, typ: "gauge", gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — for figures that already live elsewhere (store size, WAL
// size). fn must be safe for concurrent use. constLabels (alternating
// name, value) are rendered on the sample; the build-info idiom is a
// GaugeFunc returning 1 with the info in labels.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, constLabels ...string) {
	if len(constLabels)%2 != 0 {
		panic("metrics: constLabels must be name/value pairs")
	}
	r.add(&family{name: name, help: help, typ: "gauge", valueFn: fn, constLabels: constLabels})
}

// CounterFunc is GaugeFunc for a monotonic count that is already kept
// elsewhere: the family is typed counter and fn is read at scrape time,
// so the event is counted in one place only.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, typ: "counter", valueFn: fn})
}

// Histogram registers and returns a new histogram over the given
// ascending upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	r.add(&family{name: name, help: help, typ: "histogram", hist: h})
	return h
}

// CounterVec registers and returns a counter family partitioned by the
// given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return r.counterVec(name, help, 1, labels)
}

// counterVec registers a counter family whose integer counts are
// multiplied by scale on exposition.
func (r *Registry) counterVec(name, help string, scale float64, labels []string) *CounterVec {
	v := &CounterVec{labels: labels, children: make(map[string]*vecChild[*Counter])}
	r.add(&family{name: name, help: help, typ: "counter", counterVec: v, scale: scale})
	return v
}

// SecondsCounterVec registers a counter family that accumulates
// durations: children count nanoseconds (Add(uint64(d)) for a
// time.Duration d) and are exposed in seconds, the Prometheus base unit.
func (r *Registry) SecondsCounterVec(name, help string, labels ...string) *CounterVec {
	return r.counterVec(name, help, 1e-9, labels)
}

// HistogramVec registers and returns a histogram family partitioned by
// the given label names, every child over the same bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	v := &HistogramVec{labels: labels, bounds: bounds,
		children: make(map[string]*vecChild[*Histogram])}
	r.add(&family{name: name, help: help, typ: "histogram", histVec: v})
	return v
}

// ------------------------------------------------------------- exposition

// WritePrometheus renders every registered family in the Prometheus
// text exposition format, families sorted by name and vector children
// by label values, so the output is deterministic for a given state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	order := append([]string(nil), r.order...)
	fams := make([]*family, len(order))
	for i, name := range order {
		fams[i] = r.families[name]
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		switch {
		case f.counter != nil:
			writeSample(&b, f.name, nil, nil, float64(f.counter.Value()))
		case f.gauge != nil:
			writeSample(&b, f.name, nil, nil, float64(f.gauge.Value()))
		case f.valueFn != nil:
			var ln, lv []string
			for i := 0; i+1 < len(f.constLabels); i += 2 {
				ln = append(ln, f.constLabels[i])
				lv = append(lv, f.constLabels[i+1])
			}
			writeSample(&b, f.name, ln, lv, f.valueFn())
		case f.hist != nil:
			writeHistogram(&b, f.name, nil, nil, f.hist)
		case f.counterVec != nil:
			for _, c := range sortedChildren(&f.counterVec.mu, f.counterVec.children) {
				writeSample(&b, f.name, f.counterVec.labels, c.values, f.scale*float64(c.m.Value()))
			}
		case f.histVec != nil:
			for _, c := range sortedChildren(&f.histVec.mu, f.histVec.children) {
				writeHistogram(&b, f.name, f.histVec.labels, c.values, c.m)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// sortedChildren snapshots a vector's children ordered by label values.
func sortedChildren[T any](mu *sync.RWMutex, children map[string]*vecChild[T]) []*vecChild[T] {
	mu.RLock()
	out := make([]*vecChild[T], 0, len(children))
	for _, c := range children {
		out = append(out, c)
	}
	mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		return vecKey(out[i].values) < vecKey(out[j].values)
	})
	return out
}

// writeSample renders one sample line with optional labels.
func writeSample(b *strings.Builder, name string, labels, values []string, v float64) {
	b.WriteString(name)
	writeLabels(b, labels, values, "", 0)
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

// writeHistogram renders the cumulative _bucket series plus _sum and
// _count for one histogram.
func writeHistogram(b *strings.Builder, name string, labels, values []string, h *Histogram) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		b.WriteString(name)
		b.WriteString("_bucket")
		writeLabels(b, labels, values, "le", bound)
		fmt.Fprintf(b, " %d\n", cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	b.WriteString(name)
	b.WriteString("_bucket")
	writeLabels(b, labels, values, "le", math.Inf(1))
	fmt.Fprintf(b, " %d\n", cum)
	fmt.Fprintf(b, "%s_sum %s\n", name, formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count())
}

// writeLabels renders a {k="v",...} block; le != "" appends the bucket
// bound label. Nothing is written when there are no labels at all.
func writeLabels(b *strings.Builder, labels, values []string, le string, bound float64) {
	if len(labels) == 0 && le == "" {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(le)
		b.WriteString(`="`)
		if math.IsInf(bound, 1) {
			b.WriteString("+Inf")
		} else {
			b.WriteString(formatValue(bound))
		}
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// formatValue renders a float the way Prometheus clients do: integers
// without an exponent or trailing zeros, everything else in the
// shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
