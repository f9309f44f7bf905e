// Command capman-serve runs capmand, the simulation-as-a-service daemon:
// the CAPMAN simulator behind an HTTP JSON job API with a bounded worker
// pool, a content-addressed result cache, and Prometheus metrics.
//
// Usage:
//
//	capman-serve -addr :8080 -workers 8 -queue 128 -job-timeout 5m
//	capman-serve -log-format json -log-level debug -pprof
//	capman-serve -slo-decision-p99 50us -slo-queue-wait-p95 5s -slo-tte-p99 30s
//
// Submit work with POST /v1/jobs, poll GET /v1/jobs/{id}, cancel with
// DELETE /v1/jobs/{id}; see /metrics, /healthz, /debug/buildinfo and a
// job's record at GET /v1/jobs/{id}/trace — its span tree, lifecycle
// events, engine breadcrumbs, teed logs and, for a failed job, its
// metric deltas — for observability (-pprof adds /debug/pprof/). The
// telemetry plane — an in-process time-series store, the anomaly
// detectors that read it, and the GET /v1/stream live feed of samples,
// job events and alerts that capman-top renders — is on by default;
// tune it with -telemetry-interval / -telemetry-retention /
// -anomaly-interval or turn it off with -no-telemetry. Request tracing — one ID per submission,
// both its request ID and its trace ID, minted (or adopted from an
// inbound W3C traceparent) at admission, and the waterfalls of the
// newest 512 finished jobs and 512 refused or traced cache-hit requests
// at GET /v1/traces and /v1/traces/{id} — is on by default; turn it off
// with -no-trace (also spelled -no-flight). A job's record at
// /v1/jobs/{id}/trace is served either way, until the job ages out of
// the job table. /metrics is plain Prometheus
// text. Each admitted job runs once: a run is a deterministic function of
// its spec, so a failed job would fail again. A submission that finds the
// -queue backlog full is shed with 429 and Retry-After: 1; cache hits and
// duplicates of queued work are still served. SLO burn-rate alerts
// (-slo-*) count breaches and never refuse work. A registry entry whose
// last five jobs failed is refused with 503 for 30 s by its circuit
// breaker, and so is every submission to a draining daemon. On SIGTERM or SIGINT the
// server stops accepting work, drains in-flight jobs (up to
// -drain-timeout), and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capman-serve:", err)
		os.Exit(1)
	}
}

// options is what capman-serve's flags configure: the daemon's
// server.Config, and the listener, drain budget and HTTP limits around
// it. logLevel and logFormat are kept for the startup log line.
type options struct {
	addr                                         string
	drainTimeout                                 time.Duration
	readHeaderTimeout, readTimeout, writeTimeout time.Duration
	maxHeaderBytes                               int
	logLevel                                     slog.Level
	logFormat                                    string
	server                                       server.Config
}

// parseFlags parses capman-serve's command line into options whose
// logger writes to out. It binds nothing, so every documented invocation
// can be checked in a test.
func parseFlags(args []string, out io.Writer) (options, error) {
	fs := flag.NewFlagSet("capman-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "job queue depth: a submission that finds the queue full is shed with 429 and Retry-After: 1")
	cache := fs.Int("cache", 256, "result cache capacity (-1 disables)")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job wall-clock timeout, starting at dequeue (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful drain budget on shutdown")
	queueWaitWarn := fs.Duration("queue-wait-warn", 0, "warn when a job's queue wait exceeds this (0 = default 30s, -1ns disables)")
	sloDecisionP99 := fs.Duration("slo-decision-p99", 0, "SLO: p99 target for policy decision latency; arms a burn-rate detector in the anomaly engine (0 disables)")
	sloQueueWaitP95 := fs.Duration("slo-queue-wait-p95", 0, "SLO: p95 target for job queue wait; arms a burn-rate detector in the anomaly engine (0 disables)")
	sloTTEP99 := fs.Duration("slo-tte-p99", 0, "SLO: p99 target for Monte Carlo time-to-empty job wall time; arms a burn-rate detector in the anomaly engine (0 disables)")
	noTelemetry := fs.Bool("no-telemetry", false, "disable the telemetry plane (/v1/stream answers 503)")
	telemetryInterval := fs.Duration("telemetry-interval", 0, "time-series store scrape period (0 = default 1s)")
	telemetryRetention := fs.Int("telemetry-retention", 0, "points retained per series in the time-series store (0 = default 600)")
	anomalyInterval := fs.Duration("anomaly-interval", 0, "anomaly detector evaluation cadence (0 = default 15s)")
	readHeaderTimeout := fs.Duration("read-header-timeout", 5*time.Second, "http server limit for reading request headers (0 = none)")
	readTimeout := fs.Duration("read-timeout", time.Minute, "http server limit for reading a full request (0 = none; streams exempt themselves)")
	writeTimeout := fs.Duration("write-timeout", time.Minute, "http server limit for writing a response (0 = none; streams exempt themselves)")
	maxHeaderBytes := fs.Int("max-header-bytes", 1<<20, "http server cap on request header size")
	noTrace := fs.Bool("no-trace", false, "disable the trace surfaces (/v1/traces answers 503, no traceId links or trace frames; request IDs are still minted and /v1/jobs/{id}/trace still serves each job's record)")
	fs.BoolVar(noTrace, "no-flight", false, "same as -no-trace")
	noInvariants := fs.Bool("no-invariants", false, "disable the runtime safety-invariant checker on served jobs")
	invariantCPUCeiling := fs.Float64("invariant-cpu-ceiling", 0, "override the checker's CPU thermal ceiling in degC (0 = calibrated default)")
	logLevel := fs.String("log-level", "info", "log level: debug|info|warn|error")
	logFormat := fs.String("log-format", obs.FormatText, "log format: text|json")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return options{}, err
	}
	logger, err := obs.NewLogger(out, level, *logFormat)
	if err != nil {
		return options{}, err
	}

	var invOverride *invariant.Config
	if *invariantCPUCeiling > 0 {
		invOverride = &invariant.Config{MaxCPUTempC: *invariantCPUCeiling}
	}
	return options{
		addr:              *addr,
		drainTimeout:      *drainTimeout,
		readHeaderTimeout: *readHeaderTimeout,
		readTimeout:       *readTimeout,
		writeTimeout:      *writeTimeout,
		maxHeaderBytes:    *maxHeaderBytes,
		logLevel:          level,
		logFormat:         *logFormat,
		server: server.Config{
			Logger:      logger,
			EnablePprof: *enablePprof,
			Executor: server.ExecutorConfig{
				Workers:           *workers,
				QueueDepth:        *queue,
				CacheSize:         *cache,
				JobTimeout:        *jobTimeout,
				QueueWaitWarn:     *queueWaitWarn,
				DisableInvariants: *noInvariants,
				Invariants:        invOverride,
				Trace:             server.TraceConfig{Disable: *noTrace},
			},
			SLO: server.SLOConfig{
				DecisionP99:  *sloDecisionP99,
				QueueWaitP95: *sloQueueWaitP95,
				TTEP99:       *sloTTEP99,
			},
			Telemetry: server.TelemetryConfig{
				Disable:         *noTelemetry,
				Interval:        *telemetryInterval,
				Retention:       *telemetryRetention,
				AnomalyInterval: *anomalyInterval,
			},
		},
	}, nil
}

// run parses flags, binds the listener, and serves until ctx is cancelled
// (SIGTERM/SIGINT in production; the tests cancel it directly).
func run(ctx context.Context, args []string, out *os.File) error {
	opts, err := parseFlags(args, out)
	if err != nil {
		return err
	}
	cfg, logger := opts.server, opts.server.Logger
	srv := server.New(cfg)

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	ex := cfg.Executor
	logger.Info("capmand listening",
		"addr", ln.Addr().String(),
		"workers", ex.Workers,
		"queue", ex.QueueDepth,
		"cache", ex.CacheSize,
		"job_timeout", ex.JobTimeout.String(),
		"drain_timeout", opts.drainTimeout.String(),
		"queue_wait_warn", ex.QueueWaitWarn.String(),
		"slo_decision_p99", cfg.SLO.DecisionP99.String(),
		"slo_queue_wait_p95", cfg.SLO.QueueWaitP95.String(),
		"slo_tte_p99", cfg.SLO.TTEP99.String(),
		"invariants", !ex.DisableInvariants,
		"telemetry", !cfg.Telemetry.Disable,
		"trace", !ex.Trace.Disable,
		"pprof", cfg.EnablePprof,
		"log_level", opts.logLevel.String(),
		"log_format", opts.logFormat)
	fmt.Fprintf(out, "capmand listening on %s\n", ln.Addr())
	httpSrv := hardenedServer(srv.Handler(), opts.readHeaderTimeout, opts.readTimeout, opts.writeTimeout, opts.maxHeaderBytes)
	return serve(ctx, ln, srv, httpSrv, opts.drainTimeout, out, logger)
}

// hardenedServer builds the http.Server with slow-client limits: header
// and request read deadlines, a response write deadline, and a header
// size cap. Long-lived SSE streams opt out per connection — handleStream
// clears its read and write deadlines via http.ResponseController — so
// the daemon-wide timeouts only police request/response endpoints.
func hardenedServer(h http.Handler, readHeader, read, write time.Duration, maxHeader int) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeader,
		ReadTimeout:       read,
		WriteTimeout:      write,
		MaxHeaderBytes:    maxHeader,
	}
}

// serve runs the HTTP server on ln until ctx is cancelled, then performs
// the graceful drain: stop accepting connections, let in-flight jobs
// finish within the drain budget, cancel whatever remains.
func serve(ctx context.Context, ln net.Listener, srv *server.Server, httpSrv *http.Server, drainTimeout time.Duration, out *os.File, logger *slog.Logger) error {
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(out, "capmand draining...")
	logger.Info("shutdown signal received; draining", "budget", drainTimeout.String())
	start := time.Now()
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	<-errc // Serve has returned http.ErrServerClosed
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		logger.Error("drain failed", "err", drainErr, "elapsed", time.Since(start).String())
		return drainErr
	}
	if errors.Is(drainErr, context.DeadlineExceeded) {
		logger.Warn("drain budget exhausted; remaining jobs were cancelled",
			"elapsed", time.Since(start).String())
	} else {
		logger.Info("drain complete", "elapsed", time.Since(start).String())
	}
	fmt.Fprintln(out, "capmand stopped")
	return nil
}
