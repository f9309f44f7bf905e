// Package tsdb is capmand's in-process time-series store: a periodic
// sampler that snapshots every stored instrument of a metrics.Registry
// into fixed-size per-series rings, plus the range-query and windowed
// reduction layer that GET /v1/query, the live SSE stream, and the
// anomaly engine read from.
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
//     sampling never builds label keys; readers take a short per-series
//     mutex while copying raw points out and compute on their own copy.
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

// Defaults for Config's zero values.
const (
	DefaultInterval  = time.Second
	DefaultCapacity  = 600 // 10 minutes of history at the default interval
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
	// MaxSeries bounds how many series the store tracks; series past the
	// bound are dropped and counted (default 1024).
	MaxSeries int
	// Logger receives store lifecycle logs (nil: silent).
	Logger *slog.Logger
}

// Point is one stored or computed sample: T is unix milliseconds, V the
// value. Computed points (rates, quantiles) carry the grid timestamp of
// the window end.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// series is one tracked time series and its ring lanes. Scalars use
// times/vals; histograms additionally use counts (cumulative observation
// count) and buckets (capacity × nb flattened cumulative bucket counts).
type series struct {
	name   string
	kind   string
	labels []string // shared with the registry; read-only
	values []string // shared with the registry; read-only
	hist   *obs.Histogram
	bounds []float64 // histogram bucket bounds (shared; read-only)
	nb     int       // len(bounds)+1, the +Inf lane included

	mu      sync.Mutex
	times   []int64
	vals    []float64 // scalar value, or histogram sum
	counts  []float64 // histogram cumulative count
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

// writeHist appends one histogram point: sum, count, and the bucket
// vector read straight into the ring lane (no scratch, no allocation).
func (s *series) writeHist(t int64) {
	s.mu.Lock()
	lane := s.buckets[s.head*s.nb : (s.head+1)*s.nb]
	sum, count := s.hist.ReadInto(lane)
	s.times[s.head] = t
	s.vals[s.head] = sum
	s.counts[s.head] = float64(count)
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

// rawPoint is one copied-out ring entry, histogram lanes included.
type rawPoint struct {
	t       int64
	v       float64 // scalar value / histogram sum
	count   float64 // histogram cumulative count
	buckets []uint64
}

// copyOut snapshots the ring oldest-first into dst (reused by callers).
func (s *series) copyOut(dst []rawPoint) []rawPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	dst = dst[:0]
	start := s.head - s.n
	if start < 0 {
		start += len(s.times)
	}
	for i := 0; i < s.n; i++ {
		idx := (start + i) % len(s.times)
		p := rawPoint{t: s.times[idx], v: s.vals[idx]}
		if s.nb > 0 {
			p.count = s.counts[idx]
			p.buckets = append([]uint64(nil), s.buckets[idx*s.nb:(idx+1)*s.nb]...)
		}
		dst = append(dst, p)
	}
	return dst
}

// labelMap materializes the series labels for JSON payloads.
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
	max      int
	logger   *slog.Logger

	mu      sync.RWMutex // guards the series table against readers
	series  map[any]*series
	ordered []*series // insertion order; queries filter by name
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
	if cfg.MaxSeries <= 0 {
		cfg.MaxSeries = DefaultMaxSeries
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Nop()
	}
	st := &Store{
		reg:      cfg.Registry,
		interval: cfg.Interval,
		capacity: cfg.Capacity,
		max:      cfg.MaxSeries,
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

// Dropped returns how many series were refused past MaxSeries.
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
	// this read needs no lock; concurrent readers (queries) synchronize
	// via st.mu around their own reads and our writes.
	s, ok := st.series[smp.Ref]
	if !ok {
		if len(st.series) >= st.max {
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
		kind:   smp.Kind,
		labels: smp.Labels,
		values: smp.Values,
		times:  make([]int64, st.capacity),
		vals:   make([]float64, st.capacity),
	}
	if smp.Hist != nil {
		s.hist = smp.Hist
		s.bounds = smp.Hist.Bounds()
		s.nb = len(s.bounds) + 1
		s.counts = make([]float64, st.capacity)
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

// MetricInfo describes one tracked family for discovery payloads.
type MetricInfo struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Series int    `json:"series"`
}

// Metrics enumerates the tracked families, sorted by name.
func (st *Store) Metrics() []MetricInfo {
	st.mu.RLock()
	byName := make(map[string]*MetricInfo)
	for _, s := range st.ordered {
		mi, ok := byName[s.name]
		if !ok {
			mi = &MetricInfo{Name: s.name, Kind: s.kind}
			byName[s.name] = mi
		}
		mi.Series++
	}
	st.mu.RUnlock()
	out := make([]MetricInfo, 0, len(byName))
	for _, mi := range byName {
		out = append(out, *mi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ---------------------------------------------------------------------------
// Range queries.

// Query ops. OpValue reads the raw stored value at each grid point;
// OpRate and OpIncrease difference counters (or histogram counts) per
// step; OpQuantile computes the windowed histogram quantile per step
// from bucket deltas.
const (
	OpValue    = "value"
	OpRate     = "rate"
	OpIncrease = "increase"
	OpQuantile = "quantile"
)

// Query describes one range query: Metric over [Start, End] aligned to
// Step, reduced by Op.
type Query struct {
	Metric string
	// Match filters series to those carrying every given label pair.
	Match map[string]string
	Start time.Time
	End   time.Time
	// Step is the grid spacing (default: the store interval).
	Step time.Duration
	// Op is one of the Op* constants (default OpValue).
	Op string
	// Q is the quantile for OpQuantile, in (0, 1).
	Q float64
}

// SeriesData is one series' aligned range vector.
type SeriesData struct {
	Labels map[string]string `json:"labels,omitempty"`
	Points []Point           `json:"points"`
}

// Result is a whole range-query response.
type Result struct {
	Metric  string       `json:"metric"`
	Op      string       `json:"op"`
	StartMS int64        `json:"startMs"`
	EndMS   int64        `json:"endMs"`
	StepMS  int64        `json:"stepMs"`
	Series  []SeriesData `json:"series"`
}

// Query evaluates one range query. Results are deterministic for fixed
// stored contents: evaluation copies each ring under its lock and
// computes on the copy, so concurrent readers always see bit-identical
// range vectors. Grid points with no covering sample are omitted rather
// than interpolated.
func (st *Store) Query(q Query) (*Result, error) {
	if q.Metric == "" {
		return nil, fmt.Errorf("tsdb: query needs a metric")
	}
	if q.Step <= 0 {
		q.Step = st.interval
	}
	if q.Op == "" {
		q.Op = OpValue
	}
	switch q.Op {
	case OpValue, OpRate, OpIncrease, OpQuantile:
	default:
		return nil, fmt.Errorf("tsdb: unknown op %q", q.Op)
	}
	if q.Op == OpQuantile && (q.Q <= 0 || q.Q >= 1) {
		return nil, fmt.Errorf("tsdb: quantile %v outside (0, 1)", q.Q)
	}
	if !q.End.After(q.Start) {
		return nil, fmt.Errorf("tsdb: empty query range")
	}
	res := &Result{
		Metric:  q.Metric,
		Op:      q.Op,
		StartMS: q.Start.UnixMilli(),
		EndMS:   q.End.UnixMilli(),
		StepMS:  q.Step.Milliseconds(),
	}
	var scratch []rawPoint
	st.forName(q.Metric, q.Match, func(s *series) {
		scratch = s.copyOut(scratch)
		sd := SeriesData{Labels: s.labelMap(), Points: evalSeries(q, s, scratch)}
		res.Series = append(res.Series, sd)
	})
	// Stable order for callers: by rendered label values.
	sort.Slice(res.Series, func(i, j int) bool {
		return labelKey(res.Series[i].Labels) < labelKey(res.Series[j].Labels)
	})
	return res, nil
}

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

// evalSeries computes one series' grid points from its copied-out raws.
func evalSeries(q Query, s *series, raw []rawPoint) []Point {
	if len(raw) == 0 {
		return nil
	}
	stepMS := q.Step.Milliseconds()
	startMS := q.Start.UnixMilli()
	endMS := q.End.UnixMilli()
	var out []Point
	for t := startMS; t <= endMS; t += stepMS {
		cur, ok := lastAtOrBefore(raw, t)
		if !ok {
			continue
		}
		switch q.Op {
		case OpValue:
			if raw[cur].t <= t-stepMS {
				// Staleness: a sample older than one full step is a gap,
				// not a value.
				continue
			}
			out = append(out, Point{T: t, V: raw[cur].v})
		case OpRate, OpIncrease:
			base, ok := lastAtOrBefore(raw, t-stepMS)
			if !ok || base == cur {
				continue
			}
			var inc float64
			if s.nb > 0 {
				inc = raw[cur].count - raw[base].count
			} else {
				inc = raw[cur].v - raw[base].v
			}
			if q.Op == OpRate {
				dt := float64(raw[cur].t-raw[base].t) / 1000
				if dt <= 0 {
					continue
				}
				inc /= dt
			}
			out = append(out, Point{T: t, V: inc})
		case OpQuantile:
			if s.nb == 0 {
				continue
			}
			base, ok := lastAtOrBefore(raw, t-stepMS)
			if !ok || base == cur {
				continue
			}
			v, ok := bucketQuantile(q.Q, s.bounds, raw[base].buckets, raw[cur].buckets)
			if !ok {
				continue
			}
			out = append(out, Point{T: t, V: v})
		}
	}
	return out
}

// lastAtOrBefore returns the index of the newest raw point with time <= t.
func lastAtOrBefore(raw []rawPoint, t int64) (int, bool) {
	// raw is oldest-first; binary search for the first point after t.
	i := sort.Search(len(raw), func(i int) bool { return raw[i].t > t })
	if i == 0 {
		return 0, false
	}
	return i - 1, true
}

// bucketQuantile computes the q-quantile of the observations recorded
// between two cumulative bucket vectors, by the same linear
// interpolation obs.HistogramSnapshot.Quantile uses (+Inf clamps to the
// last finite bound). ok is false when the window holds no observations.
func bucketQuantile(q float64, bounds []float64, base, cur []uint64) (float64, bool) {
	var total uint64
	for i := range cur {
		total += cur[i] - base[i]
	}
	if total == 0 {
		return 0, false
	}
	rank := q * float64(total)
	var run uint64
	for i := range cur {
		c := cur[i] - base[i]
		prev := run
		run += c
		if float64(run) < rank {
			continue
		}
		if i >= len(bounds) { // +Inf bucket: clamp
			return bounds[len(bounds)-1], true
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if c == 0 {
			return hi, true
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c), true
	}
	return bounds[len(bounds)-1], true
}

// ---------------------------------------------------------------------------
// Windowed reductions (the anomaly engine's and live stream's substrate).

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
	// the shared bounds, and the sum delta.
	Hist        bool
	Bounds      []float64
	BucketDelta []uint64
	SumDelta    float64
}

// Rate returns Delta per second over the actual window span.
func (w WindowStats) Rate() float64 {
	dt := float64(w.ToMS-w.FromMS) / 1000
	if dt <= 0 {
		return 0
	}
	return w.Delta / dt
}

// Quantile computes the windowed histogram quantile; ok is false for
// scalar series or empty windows.
func (w WindowStats) Quantile(q float64) (float64, bool) {
	if !w.Hist || w.BucketDelta == nil {
		return 0, false
	}
	var total uint64
	for _, c := range w.BucketDelta {
		total += c
	}
	if total == 0 {
		return 0, false
	}
	zero := make([]uint64, len(w.BucketDelta))
	return bucketQuantile(q, w.Bounds, zero, w.BucketDelta)
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

// Window summarizes every series of one family over [from, to].
func (st *Store) Window(metric string, match map[string]string, from, to time.Time) []WindowStats {
	fromMS, toMS := from.UnixMilli(), to.UnixMilli()
	var out []WindowStats
	var scratch []rawPoint
	st.forName(metric, match, func(s *series) {
		scratch = s.copyOut(scratch)
		if ws, ok := windowStats(s, scratch, fromMS, toMS); ok {
			out = append(out, ws)
		}
	})
	sort.Slice(out, func(i, j int) bool {
		return labelKey(out[i].Labels) < labelKey(out[j].Labels)
	})
	return out
}

// windowStats reduces one series' raw points over [fromMS, toMS].
func windowStats(s *series, raw []rawPoint, fromMS, toMS int64) (WindowStats, bool) {
	cur, ok := lastAtOrBefore(raw, toMS)
	if !ok {
		return WindowStats{}, false
	}
	base, ok := lastAtOrBefore(raw, fromMS)
	if !ok {
		base = 0 // window predates retention: oldest available point
	}
	ws := WindowStats{
		Labels: s.labelMap(),
		FromMS: raw[base].t,
		ToMS:   raw[cur].t,
	}
	if s.nb > 0 {
		ws.Hist = true
		ws.Bounds = s.bounds
		ws.First, ws.Last = raw[base].count, raw[cur].count
		ws.Delta = ws.Last - ws.First
		ws.SumDelta = raw[cur].v - raw[base].v
		ws.BucketDelta = make([]uint64, s.nb)
		for i := range ws.BucketDelta {
			ws.BucketDelta[i] = raw[cur].buckets[i] - raw[base].buckets[i]
		}
	} else {
		ws.First, ws.Last = raw[base].v, raw[cur].v
		ws.Delta = ws.Last - ws.First
	}
	ws.Min, ws.Max = math.Inf(1), math.Inf(-1)
	for i := base; i <= cur; i++ {
		v := raw[i].v
		if s.nb > 0 {
			v = raw[i].count
		}
		if raw[i].t > fromMS {
			ws.Samples++
		}
		if v < ws.Min {
			ws.Min = v
		}
		if v > ws.Max {
			ws.Max = v
		}
	}
	return ws, true
}
