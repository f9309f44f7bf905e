// Package metrics is the unified, label-aware metrics registry behind
// capmand's /metrics endpoint. It grew out of the hand-rolled counters in
// internal/server: every metric in the system — server job lifecycle,
// sim per-phase timings, simstruct EMD latency, Go runtime gauges — now
// registers here and is rendered by one strict Prometheus text
// exposition writer (expo.go).
//
// Design rules, in the spirit of the rest of internal/obs:
//
//   - Nil-safe "off" mode: a nil *Registry returns nil instruments from
//     every constructor, and every method on a nil instrument is an
//     allocation-free no-op. Code paths instrumented against a nil
//     registry are bit-identical to uninstrumented code.
//   - Lock-cheap hot path: scalar instruments are single atomics; vector
//     lookups take a read lock only on miss-free paths, and callers are
//     expected to cache the handle returned by WithLabelValues (0
//     allocs/op once cached — see BenchmarkCounterVecHot).
//   - Bounded label cardinality: each vector family admits at most
//     DefaultMaxSeries label combinations; further combinations share one
//     sentinel series whose every label value is "overflow", and the
//     spill count is available via Dropped(). A metrics endpoint must
//     never become the memory leak it is meant to catch.
//   - One shape: every stored family, labeled or not, is a Vec of one
//     instrument type, and a scalar is the single series of an unlabeled
//     Vec. The only other family form is function-backed (GaugeFunc,
//     CounterFunc), sampled at scrape time.
//   - Registration is startup-time configuration, so invalid or
//     duplicate names panic rather than returning errors. Names are
//     validated by CheckName, the same rules scripts/metriclint
//     enforces statically.
package metrics

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// DefaultMaxSeries bounds the number of label combinations a vector
// family admits before spilling to the "overflow" sentinel series.
const DefaultMaxSeries = 64

// Instrument kinds, also the TYPE strings of the exposition format.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

var (
	nameRE  = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	labelRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

// histogramUnits are the accepted unit suffixes for histogram names.
var histogramUnits = []string{"_seconds", "_bytes", "_joules", "_celsius", "_watts", "_ratio"}

// CheckName validates a metric name against the repository's naming
// rules: snake_case ([a-z][a-z0-9_]*, no "__"), counters end in
// "_total", histograms end in a unit suffix (_seconds, _bytes, ...),
// and gauges must not end in "_total". kind is one of KindCounter,
// KindGauge, KindHistogram. The same rules back scripts/metriclint.
func CheckName(kind, name string) error {
	if !nameRE.MatchString(name) || strings.Contains(name, "__") {
		return fmt.Errorf("metric %q: not snake_case ([a-z][a-z0-9_]*, no double underscore)", name)
	}
	switch kind {
	case KindCounter:
		if !strings.HasSuffix(name, "_total") {
			return fmt.Errorf("counter %q: name must end in _total", name)
		}
	case KindHistogram:
		ok := false
		for _, u := range histogramUnits {
			if strings.HasSuffix(name, u) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("histogram %q: name must end in a unit suffix (%s)", name, strings.Join(histogramUnits, ", "))
		}
	case KindGauge:
		if strings.HasSuffix(name, "_total") {
			return fmt.Errorf("gauge %q: _total suffix is reserved for counters", name)
		}
	default:
		return fmt.Errorf("metric %q: unknown kind %q", name, kind)
	}
	return nil
}

// checkLabel validates one label name.
func checkLabel(metric, label string) error {
	if !labelRE.MatchString(label) || strings.Contains(label, "__") {
		return fmt.Errorf("metric %q: label %q: not snake_case", metric, label)
	}
	if label == "le" {
		return fmt.Errorf("metric %q: label %q is reserved for histogram buckets", metric, label)
	}
	return nil
}

// Registry holds metric families and renders them through one exposition
// writer. The zero value is not usable; build one with NewRegistry. A nil
// *Registry is the supported "metrics off" mode: constructors return nil
// instruments whose methods no-op.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
	// sorted caches the name-ordered family list. Registration replaces
	// it wholesale (never mutates in place), so families() can hand the
	// shared slice to readers without copying — the tsdb sample path
	// iterates it every tick and must not allocate.
	sorted []*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// family is one named metric with zero or more labeled series.
type family struct {
	name   string
	help   string
	kind   string
	labels []string
	// mk builds the instrument of a new series; nil for function-backed
	// families, which store none.
	mk func() any

	mu       sync.RWMutex
	series   map[string]*series
	overflow *series
	dropped  atomic.Uint64
	// cache is the label-ordered series list (overflow sentinel last),
	// rebuilt lazily after a new series invalidates it. Shared with
	// readers: snapshotSeries hands it out uncopied so the per-scrape
	// iteration (exposition, Baseline, tsdb sampling) stays
	// allocation-free once the series set is stable.
	cache []*series

	// value, when non-nil, marks a function-backed family (GaugeFunc,
	// CounterFunc): its one unlabeled sample is value() at read time.
	value func() float64
}

// series is one label combination of a family.
type series struct {
	labelValues []string
	inst        any // *Counter | *CounterFloat | *Gauge | *GaugeFloat | *Histogram
}

// register installs a family or panics on invalid/duplicate names.
func (r *Registry) register(f *family) *family {
	if err := CheckName(f.kind, f.name); err != nil {
		panic("metrics: " + err.Error())
	}
	for _, l := range f.labels {
		if err := checkLabel(f.name, l); err != nil {
			panic("metrics: " + err.Error())
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[f.name]; dup {
		panic("metrics: duplicate registration of " + f.name)
	}
	f.series = map[string]*series{}
	r.fams[f.name] = f
	fams := make([]*family, 0, len(r.fams))
	for _, g := range r.fams {
		fams = append(fams, g)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	r.sorted = fams
	return f
}

// families returns the registered families sorted by name. The slice is
// shared (rebuilt on registration, never mutated), so callers must only
// read it.
func (r *Registry) families() []*family {
	r.mu.Lock()
	fams := r.sorted
	r.mu.Unlock()
	return fams
}

const labelSep = "\x1f"

// get returns the instrument for one label combination, creating it with
// f.mk on first use. Past DefaultMaxSeries combinations it returns the
// shared "overflow" sentinel series and counts the spill.
func (f *family) get(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s: got %d label values, want %d", f.name, len(values), len(f.labels)))
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s.inst
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := f.series[key]; s != nil {
		return s.inst
	}
	if len(f.series) >= DefaultMaxSeries {
		f.dropped.Add(1)
		if f.overflow == nil {
			vals := make([]string, len(f.labels))
			for i := range vals {
				vals[i] = "overflow"
			}
			f.overflow = &series{labelValues: vals, inst: f.mk()}
			f.cache = nil
		}
		return f.overflow.inst
	}
	vals := make([]string, len(values))
	copy(vals, values)
	s = &series{labelValues: vals, inst: f.mk()}
	f.series[key] = s
	f.cache = nil
	return s.inst
}

// snapshotSeries returns the family's series sorted by label values,
// with the overflow sentinel (if any) last. The slice is shared and
// read-only for callers; it is rebuilt only after the series set grows.
func (f *family) snapshotSeries() []*series {
	f.mu.RLock()
	out := f.cache
	f.mu.RUnlock()
	if out != nil {
		return out
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cache != nil {
		return f.cache
	}
	out = make([]*series, 0, len(f.series)+1)
	for _, s := range f.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].labelValues, labelSep) < strings.Join(out[j].labelValues, labelSep)
	})
	if f.overflow != nil {
		out = append(out, f.overflow)
	}
	f.cache = out
	return out
}

// ---------------------------------------------------------------------------
// Scalar instruments. All methods are safe on nil receivers.

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// CounterFloat is a monotonically increasing float64 total (seconds
// spent, joules drawn, ...). Add with negative v is ignored.
type CounterFloat struct{ bits atomic.Uint64 }

// Add accumulates v (no-op when v < 0, totals are monotone).
func (c *CounterFloat) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the accumulated total.
func (c *CounterFloat) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a settable int64 level.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// GaugeFloat is a settable float64 level (temperatures, ratios, burn
// rates — levels an int64 Gauge would truncate).
type GaugeFloat struct{ bits atomic.Uint64 }

// Set stores v.
func (g *GaugeFloat) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (may be negative).
func (g *GaugeFloat) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current level.
func (g *GaugeFloat) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram wraps obs.Histogram with the registry's nil-safe contract.
type Histogram struct {
	h *obs.Histogram
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h != nil {
		h.h.Observe(v)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.h.Count()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.h.Sum()
}

// Snapshot returns a point-in-time copy; zero-valued when h is nil.
func (h *Histogram) Snapshot() obs.HistogramSnapshot {
	if h == nil {
		return obs.HistogramSnapshot{}
	}
	return h.h.Snapshot()
}

// Base exposes the underlying obs.Histogram for packages that accept one
// directly (sim.MetricsSink, simstruct.Config.EMDLatency); nil when h is.
func (h *Histogram) Base() *obs.Histogram {
	if h == nil {
		return nil
	}
	return h.h
}

// ---------------------------------------------------------------------------
// Constructors. Every stored family is a Vec; a scalar constructor
// registers an unlabeled Vec and returns its one series.

// Vec is a family of one instrument type over zero or more labels.
// WithLabelValues returns a handle the caller should cache; the lookup
// itself may allocate a key, the cached handle does not.
type Vec[T any] struct{ fam *family }

// The labeled families the registry builds.
type (
	CounterVec      = Vec[*Counter]
	CounterFloatVec = Vec[*CounterFloat]
	GaugeVec        = Vec[*Gauge]
	GaugeFloatVec   = Vec[*GaugeFloat]
)

// newVec registers a stored family whose series are built by mk.
func newVec[T any](r *Registry, kind, name, help string, labels []string, mk func() T) *Vec[T] {
	if r == nil {
		return nil
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, mk: func() any { return mk() }}
	return &Vec[T]{fam: r.register(f)}
}

// WithLabelValues returns the instrument for one label combination.
func (v *Vec[T]) WithLabelValues(values ...string) T {
	if v == nil {
		var none T
		return none
	}
	return v.fam.get(values).(T)
}

// Dropped reports how many series creations spilled to the overflow
// sentinel because the family hit its cardinality bound.
func (v *Vec[T]) Dropped() uint64 {
	if v == nil {
		return 0
	}
	return v.fam.dropped.Load()
}

// Counter registers a counter; name must end in _total.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).WithLabelValues()
}

// Gauge registers a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).WithLabelValues()
}

// Histogram registers a histogram over the given finite bucket bounds
// (the +Inf overflow bucket is implicit); name must carry a unit suffix.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	base, err := obs.NewHistogram(bounds)
	if err != nil {
		panic("metrics: " + name + ": " + err.Error())
	}
	return newVec(r, KindHistogram, name, help, nil, func() *Histogram { return &Histogram{h: base} }).WithLabelValues()
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return newVec(r, KindCounter, name, help, labels, func() *Counter { return &Counter{} })
}

// CounterFloatVec registers a labeled float-counter family.
func (r *Registry) CounterFloatVec(name, help string, labels ...string) *CounterFloatVec {
	return newVec(r, KindCounter, name, help, labels, func() *CounterFloat { return &CounterFloat{} })
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return newVec(r, KindGauge, name, help, labels, func() *Gauge { return &Gauge{} })
}

// GaugeFloatVec registers a labeled float-gauge family.
func (r *Registry) GaugeFloatVec(name, help string, labels ...string) *GaugeFloatVec {
	return newVec(r, KindGauge, name, help, labels, func() *GaugeFloat { return &GaugeFloat{} })
}

// Info registers a constant-1 gauge carrying build/identity labels
// (Prometheus "info" pattern): one stored series, labeled in sorted
// label-name order; name should end in _info.
func (r *Registry) Info(name, help string, labels map[string]string) {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]string, len(keys))
	for i, k := range keys {
		vals[i] = labels[k]
	}
	r.GaugeVec(name, help, keys...).WithLabelValues(vals...).Set(1)
}

// ---------------------------------------------------------------------------
// Function-backed families: sampled at read time, nothing stored.

// GaugeFunc registers a gauge whose value is fn() at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r != nil {
		r.register(&family{name: name, help: help, kind: KindGauge, value: fn})
	}
}

// CounterFunc registers a counter whose value is fn() at scrape time;
// fn must be monotone (e.g. cumulative GC pause seconds).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r != nil {
		r.register(&family{name: name, help: help, kind: KindCounter, value: fn})
	}
}
