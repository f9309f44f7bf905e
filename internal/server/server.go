package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs/metrics"
	"repro/internal/obs/tsdb"
)

// Config assembles a Server; zero values defer to ExecutorConfig defaults.
type Config struct {
	Executor ExecutorConfig

	// Logger, when set and Executor.Logger is nil, becomes the executor's
	// lifecycle logger too.
	Logger *slog.Logger

	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose heap contents and should only be
	// reachable on operator-trusted listeners.
	EnablePprof bool

	// SLO arms latency objectives over the metrics panel's histograms;
	// the zero value arms none.
	SLO SLOConfig

	// Telemetry tunes the live telemetry plane — the in-process
	// time-series store, the anomaly engine over it, and the ops event
	// stream (GET /v1/stream) carrying both. The zero value enables it
	// with defaults.
	Telemetry TelemetryConfig
}

// SLOConfig arms capmand's latency objectives. Burn-rate evaluation runs
// in the telemetry plane: each non-zero threshold becomes one
// tsdb.BurnRate detector in the anomaly engine, which compares the
// fraction of observations above the threshold against the objective's
// error budget over a 1m and a 10m window. When both windows burn faster
// than the budget accrues, the engine raises a burn-rate alert and
// capmand_slo_breach_total{slo=...} increments. With Telemetry.Disable
// nothing evaluates burn rates; the queue-wait and tte thresholds still
// flag breaching requests' records "slo-breach".
type SLOConfig struct {
	// DecisionP99 is the p99 target for capman_decision_latency_seconds
	// (objective "decision-latency-p99"); zero disables it.
	DecisionP99 time.Duration
	// QueueWaitP95 is the p95 target for capmand_queue_wait_seconds
	// (objective "queue-wait-p95"); zero disables it.
	QueueWaitP95 time.Duration
	// TTEP99 is the p99 target for capmand_tte_latency_seconds
	// (objective "tte-latency-p99"); zero disables it.
	TTEP99 time.Duration
}

// sloObjective is one armed latency objective: quantile of the histogram
// family metric stays under threshold. name labels
// capmand_slo_breach_total.
type sloObjective struct {
	name, metric string
	quantile     float64
	threshold    time.Duration
}

// objectives is the table of armed objectives, one per non-zero
// threshold.
func (c SLOConfig) objectives() []sloObjective {
	var armed []sloObjective
	for _, o := range []sloObjective{
		{"decision-latency-p99", "capman_decision_latency_seconds", 0.99, c.DecisionP99},
		{"queue-wait-p95", "capmand_queue_wait_seconds", 0.95, c.QueueWaitP95},
		{"tte-latency-p99", "capmand_tte_latency_seconds", 0.99, c.TTEP99},
	} {
		if o.threshold > 0 {
			armed = append(armed, o)
		}
	}
	return armed
}

// Server is capmand's HTTP surface:
//
//	POST   /v1/jobs              submit a JobSpec, returns the job view (202; 200 on cache hit)
//	POST   /v1/tte               submit a Monte Carlo time-to-empty job (JobSpec kind "tte")
//	GET    /v1/jobs              list known jobs, newest first
//	GET    /v1/jobs/{id}         poll a job's status and, once done, its outcome
//	GET    /v1/jobs/{id}/trace   the job's record: span tree, lifecycle events, a failed job's metric deltas
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /v1/registry          enumerate registered workloads and policies
//	GET    /v1/traces            search the retained records (503 with tracing disabled)
//	GET    /v1/traces/{id}       the newest record with that trace ID (for a job, the same bytes as /v1/jobs/{id}/trace)
//	GET    /v1/stream            live ops event feed (Server-Sent Events)
//	GET    /healthz              liveness probe
//	GET    /metrics              Prometheus text-format metrics
//	GET    /debug/buildinfo      version, Go runtime, and uptime
//	GET    /debug/pprof/         runtime profiles (only with EnablePprof)
type Server struct {
	exec    *Executor
	metrics *Metrics
	mux     *http.ServeMux
	version string
	started time.Time

	// slos are the armed latency objectives onAlert counts breaches of.
	slos []sloObjective

	// Telemetry plane; all nil when Config.Telemetry.Disable is set.
	store    *tsdb.Store
	bus      *tsdb.Bus
	engine   *tsdb.Engine
	pumpStop chan struct{}
	pumpDone chan struct{}
}

// New builds the service and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Executor.Logger == nil {
		cfg.Executor.Logger = cfg.Logger
	}
	ecfg := cfg.Executor.withDefaults()
	s := &Server{
		metrics:  ecfg.Metrics,
		mux:      http.NewServeMux(),
		version:  buildVersion(),
		started:  time.Now(),
		slos:     cfg.SLO.objectives(),
		pumpStop: make(chan struct{}),
		pumpDone: make(chan struct{}),
	}
	// The telemetry plane comes up before the executor so job lifecycle
	// events have a bus to land on from the first submission.
	if !cfg.Telemetry.Disable {
		if err := s.initTelemetry(cfg.Telemetry, ecfg); err != nil {
			// Only a nil registry can fail construction, and ecfg always
			// carries one; treat a failure as a programming error.
			panic(err)
		}
		ecfg.Stream = s.bus
	}
	s.exec = NewExecutor(ecfg)
	// Per-request SLO thresholds double as record flags: a breaching
	// job's record reads "slo-breach". Armed before any submission can
	// reach the executor.
	s.exec.armTraceSLO(cfg.SLO.QueueWaitP95, cfg.SLO.TTEP99)
	s.metrics.RegisterRuntime(s.version)

	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit(""))
	s.mux.HandleFunc("POST /v1/tte", s.handleSubmit("tte"))
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	s.mux.HandleFunc("GET /v1/stream", s.handleStream)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/buildinfo", s.handleBuildInfo)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	if s.store != nil {
		s.startTelemetry()
	}
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Executor exposes the job engine (tests and embedders).
func (s *Server) Executor() *Executor { return s.exec }

// Drain stops the telemetry plane, then gracefully stops the job engine;
// see Executor.Drain.
func (s *Server) Drain(ctx context.Context) error {
	s.stopTelemetry()
	return s.exec.Drain(ctx)
}

// handleSubmit returns the handler of a submission route. kind is the
// job kind the route implies: "" on POST /v1/jobs, which accepts either
// kind explicitly, and "tte" on POST /v1/tte, where the body is a plain
// JobSpec and an explicit other kind is a 400. Every job then flows
// through the same queue, cache and breakers and is polled at
// GET /v1/jobs/{id}.
func (s *Server) handleSubmit(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode %s spec: %w", cmp.Or(kind, "job"), err))
			return
		}
		if kind != "" {
			if spec.Kind != "" && spec.Kind != kind {
				writeError(w, http.StatusBadRequest,
					fmt.Errorf("%w: kind %q submitted to %s", ErrBadSpec, spec.Kind, r.URL.Path))
				return
			}
			spec.Kind = kind
		}
		view, err := s.exec.SubmitWith(spec, submitOptsFrom(r))
		if err != nil {
			writeSubmitError(w, err)
			return
		}
		status := http.StatusAccepted
		if view.State.Terminal() {
			status = http.StatusOK // served from cache
		}
		writeJSON(w, status, view)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.exec.List()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	view, err := s.exec.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.exec.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleRegistry(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"workloads": s.exec.registry.Workloads(),
		"policies":  s.exec.registry.Policies(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"queueDepth": s.exec.QueueDepth(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	if err := s.metrics.WritePrometheus(w); err != nil {
		// Headers are gone; nothing useful left to do.
		return
	}
}

func (s *Server) handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"version":    s.version,
		"goVersion":  runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"goroutines": runtime.NumGoroutine(),
		"uptimeS":    time.Since(s.started).Seconds(),
	})
}

// buildVersion reads the module version stamped into the binary; "devel"
// when built from a working tree without version metadata.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

// statusFor maps executor errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrBadSpec):
		return http.StatusBadRequest
	case errors.Is(err, ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrBreakerOpen):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeSubmitError is writeError plus the Retry-After header that shed
// (429) responses carry, telling well-behaved clients when to come back.
func writeSubmitError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrShed) {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, statusFor(err), err)
}

// respBuf is a pooled response-encoding buffer: writeJSON encodes into it
// and copies once to the wire, so the per-request encoder allocation and
// its growth churn disappear at high RPS.
type respBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var respPool = sync.Pool{
	New: func() any {
		b := &respBuf{}
		b.enc = json.NewEncoder(&b.buf)
		return b
	},
}

// maxPooledResponse caps what writeJSON returns to the pool; a giant
// outcome body shouldn't pin its buffer forever.
const maxPooledResponse = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	b := respPool.Get().(*respBuf)
	b.buf.Reset()
	if err := b.enc.Encode(v); err != nil {
		respPool.Put(b)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":%q}`+"\n", "encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b.buf.Bytes())
	if b.buf.Cap() <= maxPooledResponse {
		respPool.Put(b)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
