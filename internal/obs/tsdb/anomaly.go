package tsdb

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/metrics"
)

// Alert is one anomaly finding: detector X saw metric Y misbehave at
// instant Z. Alerts flow into capman_anomaly_total{detector}, a log line,
// and the live SSE stream.
type Alert struct {
	Detector string            `json:"detector"`
	Metric   string            `json:"metric"`
	Labels   map[string]string `json:"labels,omitempty"`
	At       time.Time         `json:"at"`
	// Value is the offending observation (a rate, a burn, a stuck
	// level); Baseline is what the detector compared it against.
	Value    float64 `json:"value"`
	Baseline float64 `json:"baseline,omitempty"`
	Message  string  `json:"message"`
}

// key identifies an alert stream for cooldown bookkeeping.
func (a Alert) key() string { return a.Detector + "\x00" + a.Metric + "\x00" + labelKey(a.Labels) }

// Detector is one pluggable anomaly rule evaluated over the store.
// BurnRate evaluates latency SLOs; StuckMetric and RateSpike cover the
// two other failure shapes trajectories expose that instantaneous
// scrapes cannot: signals that stop moving, and signals that move too
// fast.
type Detector interface {
	Name() string
	Evaluate(now time.Time, st *Store) []Alert
}

// ---------------------------------------------------------------------------
// StuckMetric: a series that should be moving, isn't.

// StuckMetric alerts when Metric has been flat across Window while the
// companion Activity counter moved — the shape of a wedged worker pool
// (submissions climb, completions do not).
type StuckMetric struct {
	// Metric is the series family to watch (scalar kinds; for
	// histograms the cumulative count is watched).
	Metric string
	// Activity, when non-empty, names a counter that must have increased
	// over the window for the flatness to be suspicious. Leave empty to
	// alert on any flat window.
	Activity string
	// Window is how long the metric must be flat (default 1m).
	Window time.Duration
}

// stuckMinSamples is the least number of in-window points StuckMetric
// needs before judging; it protects against verdicts on sparse data.
const stuckMinSamples = 5

// Name implements Detector.
func (d StuckMetric) Name() string { return "stuck-metric" }

// Evaluate implements Detector.
func (d StuckMetric) Evaluate(now time.Time, st *Store) []Alert {
	window := d.Window
	if window <= 0 {
		window = time.Minute
	}
	from := now.Add(-window)
	if d.Activity != "" {
		moved := false
		for _, ws := range st.Window(d.Activity, nil, from, now) {
			if ws.Delta > 0 {
				moved = true
				break
			}
		}
		if !moved {
			return nil // quiet system: flatness is expected
		}
	}
	var alerts []Alert
	for _, ws := range st.Window(d.Metric, nil, from, now) {
		if ws.Samples < stuckMinSamples || ws.Max != ws.Min {
			continue
		}
		msg := fmt.Sprintf("%s flat at %g for %s", d.Metric, ws.Last, window)
		if d.Activity != "" {
			msg += fmt.Sprintf(" while %s moved", d.Activity)
		}
		alerts = append(alerts, Alert{
			Detector: d.Name(),
			Metric:   d.Metric,
			Labels:   ws.Labels,
			At:       now,
			Value:    ws.Last,
			Message:  msg,
		})
	}
	return alerts
}

// ---------------------------------------------------------------------------
// RateSpike: a counter accelerating far past its trailing baseline.

// RateSpike alerts when Metric's rate over the Short window exceeds
// Factor times its trailing rate over the Long window (and at least
// MinCount events landed in the short window, so single stray events on
// a quiet counter don't page).
type RateSpike struct {
	Metric string
	// Short and Long are the two windows (defaults 30s and 10m). The
	// long window includes the short one, which only makes the baseline
	// conservative.
	Short, Long time.Duration
	// Factor is the acceleration trigger (default 4).
	Factor float64
	// MinCount is the least short-window increase worth judging
	// (default 1).
	MinCount float64
}

// Name implements Detector.
func (d RateSpike) Name() string { return "rate-spike" }

// Evaluate implements Detector.
func (d RateSpike) Evaluate(now time.Time, st *Store) []Alert {
	short, long := d.Short, d.Long
	if short <= 0 {
		short = 30 * time.Second
	}
	if long <= short {
		long = 10 * time.Minute
		if long <= short {
			long = 20 * short
		}
	}
	factor := d.Factor
	if factor <= 0 {
		factor = 4
	}
	minCount := d.MinCount
	if minCount <= 0 {
		minCount = 1
	}
	longStats := st.Window(d.Metric, nil, now.Add(-long), now)
	baselines := make(map[string]WindowStats, len(longStats))
	for _, ws := range longStats {
		baselines[labelKey(ws.Labels)] = ws
	}
	var alerts []Alert
	for _, ws := range st.Window(d.Metric, nil, now.Add(-short), now) {
		if ws.Delta < minCount {
			continue
		}
		base, ok := baselines[labelKey(ws.Labels)]
		if !ok {
			continue
		}
		shortRate := ws.Rate()
		longRate := base.Rate()
		if shortRate <= factor*longRate {
			continue
		}
		alerts = append(alerts, Alert{
			Detector: d.Name(),
			Metric:   d.Metric,
			Labels:   ws.Labels,
			At:       now,
			Value:    shortRate,
			Baseline: longRate,
			Message: fmt.Sprintf("%s rate %.3g/s over last %s vs %.3g/s trailing %s baseline (>%gx)",
				d.Metric, shortRate, short, longRate, long, factor),
		})
	}
	return alerts
}

// ---------------------------------------------------------------------------
// BurnRate: the SRE multi-window burn-rate rule over the store's
// histogram rings.

// BurnRate alerts when the error budget of a latency objective —
// quantile Q of histogram Metric stays under Threshold — burns faster
// than maxBurn over BOTH windows: the short window proves the problem is
// happening now, the long window proves it is not a blip. This is the
// SRE 5m/1h pattern; windows default to 1m/10m to fit the store's
// default retention.
type BurnRate struct {
	Metric    string
	Quantile  float64 // e.g. 0.99
	Threshold float64 // seconds; state it at a bucket bound for exactness
	// Short and Long are the two windows (defaults 1m and 10m).
	Short, Long time.Duration
}

// maxBurn is BurnRate's trigger: the budget spent exactly as fast as it
// accrues.
const maxBurn = 1

// Name implements Detector.
func (d BurnRate) Name() string { return "burn-rate" }

// Evaluate implements Detector.
func (d BurnRate) Evaluate(now time.Time, st *Store) []Alert {
	if d.Quantile <= 0 || d.Quantile >= 1 || d.Threshold <= 0 {
		return nil
	}
	short, long := d.Short, d.Long
	if short <= 0 {
		short = time.Minute
	}
	if long <= short {
		long = 10 * time.Minute
		if long <= short {
			long = 10 * short
		}
	}
	budget := 1 - d.Quantile
	longStats := st.Window(d.Metric, nil, now.Add(-long), now)
	longBurn := make(map[string]float64, len(longStats))
	for _, ws := range longStats {
		if bad, total := ws.BadAbove(d.Threshold); total > 0 {
			longBurn[labelKey(ws.Labels)] = float64(bad) / float64(total) / budget
		}
	}
	var alerts []Alert
	for _, ws := range st.Window(d.Metric, nil, now.Add(-short), now) {
		bad, total := ws.BadAbove(d.Threshold)
		if total == 0 {
			continue
		}
		burn := float64(bad) / float64(total) / budget
		lb, ok := longBurn[labelKey(ws.Labels)]
		if burn <= maxBurn || !ok || lb <= maxBurn {
			continue
		}
		alerts = append(alerts, Alert{
			Detector: d.Name(),
			Metric:   d.Metric,
			Labels:   ws.Labels,
			At:       now,
			Value:    burn,
			Baseline: lb,
			Message: fmt.Sprintf("%s p%g>%gs burning %.2fx budget over %s (%.2fx over %s)",
				d.Metric, d.Quantile*100, d.Threshold, burn, short, lb, long),
		})
	}
	return alerts
}

// ---------------------------------------------------------------------------
// Engine: the evaluation loop.

// cooldown suppresses repeat alerts for the same (detector, metric,
// labels) stream: a persistent condition re-fires once per cooldown, not
// once per tick.
const cooldown = time.Minute

// EngineConfig assembles an anomaly Engine.
type EngineConfig struct {
	// Store is the time-series store detectors read. Required.
	Store *Store
	// Detectors are the rules to run each tick.
	Detectors []Detector
	// Interval is the evaluation cadence (default 15s).
	Interval time.Duration
	// Anomalies, when set, is incremented per fired alert
	// (capman_anomaly_total{detector}).
	Anomalies *metrics.CounterVec
	// OnAlert, when set, receives every fired alert (the server wires
	// the SLO breach counter and the SSE stream here).
	OnAlert func(Alert)
	// Logger receives one structured warning per fired alert.
	Logger *slog.Logger
}

// Engine periodically runs every detector over the store, fanning fired
// alerts into the metrics registry, the log, and the configured hook.
type Engine struct {
	cfg EngineConfig

	mu   sync.Mutex
	last map[string]time.Time // alert stream → last fired

	stopc chan struct{}
	donec chan struct{}
	once  sync.Once
}

// NewEngine builds an engine; it does not start evaluating until Start.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("tsdb: EngineConfig.Store is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 15 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Nop()
	}
	return &Engine{
		cfg:   cfg,
		last:  make(map[string]time.Time),
		stopc: make(chan struct{}),
		donec: make(chan struct{}),
	}, nil
}

// Detectors returns the configured detector names, sorted.
func (e *Engine) Detectors() []string {
	names := make([]string, 0, len(e.cfg.Detectors))
	for _, d := range e.cfg.Detectors {
		names = append(names, d.Name())
	}
	sort.Strings(names)
	return names
}

// Start launches the evaluation loop; Stop halts it. Inert with no
// detectors.
func (e *Engine) Start() {
	if len(e.cfg.Detectors) == 0 {
		close(e.donec)
		return
	}
	go func() {
		defer close(e.donec)
		t := time.NewTicker(e.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-e.stopc:
				return
			case now := <-t.C:
				e.Evaluate(now)
			}
		}
	}()
}

// Stop halts the loop and waits for it. Idempotent; only meaningful
// after Start.
func (e *Engine) Stop() {
	e.once.Do(func() { close(e.stopc) })
	<-e.donec
}

// Evaluate runs every detector at the given instant and fans out the
// alerts that survive cooldown. It is the deterministic core of the
// ticker loop, exported so tests can drive time explicitly.
func (e *Engine) Evaluate(now time.Time) []Alert {
	var fired []Alert
	for _, d := range e.cfg.Detectors {
		for _, a := range d.Evaluate(now, e.cfg.Store) {
			if !e.admit(a, now) {
				continue
			}
			fired = append(fired, a)
			e.cfg.Anomalies.WithLabelValues(a.Detector).Inc()
			e.cfg.Logger.Warn("anomaly detected",
				"detector", a.Detector, "metric", a.Metric,
				"value", a.Value, "baseline", a.Baseline, "msg", a.Message)
			if e.cfg.OnAlert != nil {
				e.cfg.OnAlert(a)
			}
		}
	}
	return fired
}

// admit applies the per-stream cooldown.
func (e *Engine) admit(a Alert, now time.Time) bool {
	k := a.key()
	e.mu.Lock()
	defer e.mu.Unlock()
	if last, ok := e.last[k]; ok && now.Sub(last) < cooldown {
		return false
	}
	e.last[k] = now
	return true
}
