// Package tsdb is capmand's in-process time-series store: a periodic
// sampler that snapshots every stored instrument of a metrics.Registry
// into fixed-size per-series rings, plus one windowed reduction,
// Store.Window, that the live SSE stream and the anomaly engine read.
//
// Design rules, in the spirit of the registry it samples:
//
//   - Zero-dependency and bounded: rings are fixed-size float/uint64
//     lanes allocated once per series, the series count is capped
//     (further series are counted and dropped), and nothing is ever
//     written to disk. The store can't become the memory leak it exists
//     to catch.
//   - Allocation-free sample path: once the series set is stable, one
//     Sample tick performs zero heap allocations (guarded like the twin
//     engine, by TestSamplePathAllocFree and the BENCH_obs.json hard
//     gate). New-series creation is the only allocating path.
//   - Lock-light reads: the sampler keys per-series state on the
//     registry's stable series identity (metrics.StoredSample.Ref), so
//     sampling never builds label keys; Window reduces each ring in
//     place under a short per-series mutex, reading only the window's
//     two edge points' bucket lanes.
//   - Delta-aware: counters and histograms are stored raw (cumulative)
//     and differenced at read time, so rates, increases, and windowed
//     histogram quantiles are exact over any stored window.
//
// Sample may only be called from one goroutine at a time (Start's loop,
// or a test driving the schedule explicitly); everything else is safe
// for concurrent use.
package tsdb

import (
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/metrics"
)

// Defaults for Config's zero values, and the series bound.
const (
	DefaultInterval = time.Second
	DefaultCapacity = 600 // 10 minutes of history at the default interval
	// DefaultMaxSeries bounds how many series a store tracks; series
	// past the bound are dropped and counted.
	DefaultMaxSeries = 1024
)

// Config assembles a Store.
type Config struct {
	// Registry is the metrics registry to sample. Required. A store owns
	// its registry's tsdb meta-metrics (capman_tsdb_*), so build at most
	// one store per registry.
	Registry *metrics.Registry
	// Interval is the scrape period (default 1s).
	Interval time.Duration
	// Capacity is the number of points each series ring retains
	// (default 600). Retention is Capacity × Interval.
	Capacity int
	// Logger receives store lifecycle logs (nil: silent).
	Logger *slog.Logger
}

// series is one tracked time series and its ring lanes: times and vals
// for every series, plus buckets (capacity × nb flattened cumulative
// bucket counts) for histograms.
type series struct {
	name   string
	labels []string // shared with the registry; read-only
	values []string // shared with the registry; read-only
	hist   *obs.Histogram
	bounds []float64 // histogram bucket bounds (shared; read-only)
	nb     int       // len(bounds)+1, the +Inf lane included

	mu      sync.Mutex
	times   []int64
	vals    []float64 // scalar value, or histogram cumulative count
	buckets []uint64  // flattened rings of cumulative bucket counts
	head    int       // next write slot
	n       int       // fill level (≤ capacity)
}

// write appends one scalar point, overwriting the oldest once full.
func (s *series) write(t int64, v float64) {
	s.mu.Lock()
	s.times[s.head] = t
	s.vals[s.head] = v
	s.advance()
	s.mu.Unlock()
}

// writeHist appends one histogram point: the count, and the bucket
// vector read straight into the ring lane (no scratch, no allocation).
func (s *series) writeHist(t int64) {
	s.mu.Lock()
	lane := s.buckets[s.head*s.nb : (s.head+1)*s.nb]
	_, count := s.hist.ReadInto(lane)
	s.times[s.head] = t
	s.vals[s.head] = float64(count)
	s.advance()
	s.mu.Unlock()
}

// advance moves the ring head; callers hold s.mu.
func (s *series) advance() {
	s.head = (s.head + 1) % len(s.times)
	if s.n < len(s.times) {
		s.n++
	}
}

// slot maps the i-th retained point, oldest first, to its ring slot.
// Callers hold s.mu.
func (s *series) slot(i int) int {
	return (s.head - s.n + i + len(s.times)) % len(s.times)
}

// lastAtOrBefore returns the oldest-first index of the newest retained
// point with time <= t. Callers hold s.mu.
func (s *series) lastAtOrBefore(t int64) (int, bool) {
	i := sort.Search(s.n, func(i int) bool { return s.times[s.slot(i)] > t })
	return i - 1, i > 0
}

// labelMap materializes the series labels for WindowStats and alerts.
func (s *series) labelMap() map[string]string {
	if len(s.labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(s.labels))
	for i, l := range s.labels {
		m[l] = s.values[i]
	}
	return m
}

// matches reports whether the series carries every label pair in want.
func (s *series) matches(want map[string]string) bool {
	for k, v := range want {
		found := false
		for i, l := range s.labels {
			if l == k {
				found = s.values[i] == v
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Store samples a metrics registry into bounded per-series rings.
type Store struct {
	reg      *metrics.Registry
	interval time.Duration
	capacity int
	logger   *slog.Logger

	mu      sync.RWMutex // guards the series table against readers
	series  map[any]*series
	ordered []*series // insertion order; Window filters by name
	dropped atomic.Uint64

	nowMS   int64 // timestamp of the tick in flight (sampler-only)
	ticks   *metrics.Counter
	samples atomic.Uint64

	stopc chan struct{}
	donec chan struct{}
	once  sync.Once
}

// New builds a store over cfg.Registry and registers the store's own
// meta-metrics on it (capman_tsdb_samples_total, capman_tsdb_series,
// capman_tsdb_series_dropped_total).
func New(cfg Config) (*Store, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("tsdb: Config.Registry is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Nop()
	}
	st := &Store{
		reg:      cfg.Registry,
		interval: cfg.Interval,
		capacity: cfg.Capacity,
		logger:   cfg.Logger,
		series:   make(map[any]*series),
		stopc:    make(chan struct{}),
		donec:    make(chan struct{}),
	}
	st.ticks = cfg.Registry.Counter("capman_tsdb_samples_total",
		"Scrape ticks the in-process time-series store has taken.")
	cfg.Registry.GaugeFunc("capman_tsdb_series",
		"Series tracked by the in-process time-series store.",
		func() float64 {
			st.mu.RLock()
			defer st.mu.RUnlock()
			return float64(len(st.ordered))
		})
	cfg.Registry.CounterFunc("capman_tsdb_series_dropped_total",
		"Series the time-series store refused past its cardinality bound.",
		func() float64 { return float64(st.dropped.Load()) })
	return st, nil
}

// Interval returns the configured scrape period.
func (st *Store) Interval() time.Duration { return st.interval }

// Samples returns how many ticks the store has taken.
func (st *Store) Samples() uint64 { return st.samples.Load() }

// Dropped returns how many series were refused past DefaultMaxSeries.
func (st *Store) Dropped() uint64 { return st.dropped.Load() }

// Start launches the sampling loop at the configured interval; Stop
// halts it. A store may be driven manually with Sample instead.
func (st *Store) Start() {
	go func() {
		defer close(st.donec)
		t := time.NewTicker(st.interval)
		defer t.Stop()
		for {
			select {
			case <-st.stopc:
				return
			case now := <-t.C:
				st.Sample(now)
			}
		}
	}()
}

// Stop halts the sampling loop and waits for it to exit. Idempotent.
// Only meaningful after Start.
func (st *Store) Stop() {
	st.once.Do(func() { close(st.stopc) })
	<-st.donec
}

// Sample takes one scrape of the registry at the given instant. It must
// not be called concurrently with itself (Start's loop is the only
// caller in production; tests drive a fixed schedule directly). The
// steady-state path — every series already known — is allocation-free.
func (st *Store) Sample(now time.Time) {
	st.nowMS = now.UnixMilli()
	st.reg.VisitStored(st)
	st.ticks.Inc()
	st.samples.Add(1)
}

// VisitStored implements metrics.StoredVisitor: one call per stored
// series per tick. Exported only to satisfy the interface; not for
// direct use.
func (st *Store) VisitStored(smp metrics.StoredSample) {
	// The series map is written exclusively by the sampler goroutine, so
	// this read needs no lock; concurrent readers (Window) synchronize
	// via st.mu around their own reads and our writes.
	s, ok := st.series[smp.Ref]
	if !ok {
		if len(st.series) >= DefaultMaxSeries {
			st.dropped.Add(1)
			return
		}
		s = st.newSeries(smp)
		st.mu.Lock()
		st.series[smp.Ref] = s
		st.ordered = append(st.ordered, s)
		st.mu.Unlock()
	}
	if s.hist != nil {
		s.writeHist(st.nowMS)
	} else {
		s.write(st.nowMS, smp.Value)
	}
}

// newSeries allocates the ring lanes for a first-seen series.
func (st *Store) newSeries(smp metrics.StoredSample) *series {
	s := &series{
		name:   smp.Name,
		labels: smp.Labels,
		values: smp.Values,
		times:  make([]int64, st.capacity),
		vals:   make([]float64, st.capacity),
	}
	if smp.Hist != nil {
		s.hist = smp.Hist
		s.bounds = smp.Hist.Bounds()
		s.nb = len(s.bounds) + 1
		s.buckets = make([]uint64, st.capacity*s.nb)
	}
	return s
}

// forName hands every series of one family to fn, under the table lock.
func (st *Store) forName(metric string, match map[string]string, fn func(*series)) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	for _, s := range st.ordered {
		if s.name == metric && s.matches(match) {
			fn(s)
		}
	}
}

// labelKey renders a label set in sorted-name order, the stable order
// Window returns series in and the alert-stream key.
func labelKey(m map[string]string) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += k + "=" + m[k] + ";"
	}
	return out
}

// ---------------------------------------------------------------------------
// Windowed reductions: the store's one read path, under the anomaly
// engine and the live stream.

// WindowStats summarizes one series over a window: the newest sample
// at-or-before the window end against the newest sample at-or-before the
// window start (falling back to the oldest in-window sample when the
// window start predates retention).
type WindowStats struct {
	Labels map[string]string
	// FromMS/ToMS are the actual baseline and end sample times used.
	FromMS, ToMS int64
	// Samples is how many stored points fell inside (from, to].
	Samples int
	// First/Last are the raw values at the window edges; Min/Max span the
	// in-window points; Delta = Last − First (for histograms, the count
	// delta).
	First, Last, Min, Max, Delta float64
	// Histogram-only fields: the per-bucket delta over the window plus
	// the shared bounds.
	Hist        bool
	Bounds      []float64
	BucketDelta []uint64
}

// Rate returns Delta per second over the actual window span.
func (w WindowStats) Rate() float64 {
	dt := float64(w.ToMS-w.FromMS) / 1000
	if dt <= 0 {
		return 0
	}
	return w.Delta / dt
}

// Quantile computes the windowed histogram quantile by
// obs.HistogramSnapshot.Quantile over the window's bucket deltas; ok is
// false for scalar series or empty windows.
func (w WindowStats) Quantile(q float64) (float64, bool) {
	if !w.Hist {
		return 0, false
	}
	snap := obs.HistogramSnapshot{Bounds: w.Bounds, Counts: w.BucketDelta}
	for _, c := range w.BucketDelta {
		snap.Count += c
	}
	if snap.Count == 0 {
		return 0, false
	}
	return snap.Quantile(q), true
}

// BadAbove counts windowed observations in buckets wholly above the
// threshold (the burn-rate "bad" count), plus the window total. Buckets
// at or under the threshold bound are good; the rest, +Inf included,
// are bad, so thresholds stated at a bucket bound are exact.
func (w WindowStats) BadAbove(threshold float64) (bad, total uint64) {
	if !w.Hist {
		return 0, 0
	}
	idx := sort.SearchFloat64s(w.Bounds, threshold)
	var good uint64
	for i, c := range w.BucketDelta {
		total += c
		if i <= idx && i < len(w.Bounds) {
			good += c
		}
	}
	return total - good, total
}

// Window summarizes every series of one family carrying every label
// pair in match over [from, to]. Results are deterministic for fixed
// stored contents: each series is reduced under its own lock, so
// concurrent readers get bit-identical stats.
func (st *Store) Window(metric string, match map[string]string, from, to time.Time) []WindowStats {
	fromMS, toMS := from.UnixMilli(), to.UnixMilli()
	var out []WindowStats
	st.forName(metric, match, func(s *series) {
		if ws, ok := s.window(fromMS, toMS); ok {
			ws.Labels = s.labelMap()
			out = append(out, ws)
		}
	})
	sort.Slice(out, func(i, j int) bool {
		return labelKey(out[i].Labels) < labelKey(out[j].Labels)
	})
	return out
}

// window reduces the series' ring in place over [fromMS, toMS]; the
// result carries no labels.
func (s *series) window(fromMS, toMS int64) (WindowStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.lastAtOrBefore(toMS)
	if !ok {
		return WindowStats{}, false
	}
	base, ok := s.lastAtOrBefore(fromMS)
	if !ok {
		base = 0 // window predates retention: oldest available point
	}
	b, c := s.slot(base), s.slot(cur)
	ws := WindowStats{
		FromMS: s.times[b],
		ToMS:   s.times[c],
		First:  s.vals[b],
		Last:   s.vals[c],
		Min:    math.Inf(1),
		Max:    math.Inf(-1),
	}
	ws.Delta = ws.Last - ws.First
	if s.nb > 0 {
		ws.Hist = true
		ws.Bounds = s.bounds
		ws.BucketDelta = make([]uint64, s.nb)
		first, last := s.buckets[b*s.nb:(b+1)*s.nb], s.buckets[c*s.nb:(c+1)*s.nb]
		for i := range ws.BucketDelta {
			ws.BucketDelta[i] = last[i] - first[i]
		}
	}
	for i := base; i <= cur; i++ {
		k := s.slot(i)
		if s.times[k] > fromMS {
			ws.Samples++
		}
		if v := s.vals[k]; v < ws.Min {
			ws.Min = v
		}
		if v := s.vals[k]; v > ws.Max {
			ws.Max = v
		}
	}
	return ws, true
}
