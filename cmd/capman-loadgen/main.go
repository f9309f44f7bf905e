// Command capman-loadgen drives a capmand job API at a configurable
// request rate and emits a JSON report of what the serving hot path did
// under pressure: throughput, latency quantiles, cache-hit rate, shed
// rate, and per-status counts.
//
// Two drive modes:
//
//   - closed (default): -concurrency workers each keep exactly one
//     request in flight, so offered load adapts to observed latency.
//   - open: requests are dispatched on a fixed -rps clock regardless of
//     completions (bounded by -max-inflight; dispatches that would
//     exceed the bound are dropped locally and reported, never blocked).
//
// Traffic is a deterministic seeded mix over a bounded key space: each
// key maps to one fixed JobSpec (a -tte-frac slice of the space are
// Monte Carlo time-to-empty jobs, the rest discharge simulations), so
// the cache-hit ratio is tuned by -keyspace — a small space re-submits
// the same specs and hits, a large space keeps missing. With -prime the
// whole key space is submitted and completed before measurement begins,
// making steady-state runs pure cache-hit traffic.
//
// Usage:
//
//	capman-loadgen -addr http://localhost:8080 -requests 5000
//	capman-loadgen -inprocess -mode open -rps 2000 -duration 5s -report load.json
//	capman-loadgen -inprocess -requests 200 -expect-no-errors -min-hit-rate 0.9
//
// With -inprocess the tool spins up a full capmand (worker pool, sharded
// cache, admission gate) on a loopback listener and drives that, which
// is how scripts/bench.sh produces BENCH_serve.json without needing a
// deployed daemon.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capman-loadgen:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("capman-loadgen", flag.ContinueOnError)
	addr := fs.String("addr", "", "base URL of the capmand to drive (empty requires -inprocess)")
	inprocess := fs.Bool("inprocess", false, "start a loopback capmand and drive it")
	mode := fs.String("mode", "closed", "drive mode: closed|open")
	concurrency := fs.Int("concurrency", 8, "closed mode: workers, each with one request in flight")
	rps := fs.Float64("rps", 1000, "open mode: dispatch rate in requests per second")
	maxInflight := fs.Int("max-inflight", 256, "open mode: in-flight cap; dispatches beyond it are dropped locally")
	requests := fs.Int64("requests", 0, "stop after this many requests (0 = use -duration)")
	duration := fs.Duration("duration", 5*time.Second, "stop after this long when -requests is 0")
	keyspace := fs.Int("keyspace", 32, "distinct specs in the traffic mix (smaller = higher cache-hit ratio)")
	tteFrac := fs.Float64("tte-frac", 0.2, "fraction of the key space that is Monte Carlo tte jobs")
	seed := fs.Int64("seed", 1, "seed for spec generation and key picks (runs are reproducible)")
	prime := fs.Bool("prime", true, "submit and complete every key before measuring (steady-state hit traffic)")
	reportPath := fs.String("report", "", "write the JSON report here (empty = stdout)")
	expectNoErrors := fs.Bool("expect-no-errors", false, "exit nonzero if any request errored")
	minHitRate := fs.Float64("min-hit-rate", -1, "exit nonzero if the cache-hit rate lands below this (-1 disables)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request client timeout")
	workers := fs.Int("workers", 0, "inprocess daemon: worker pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 256, "inprocess daemon: job queue depth")
	cache := fs.Int("cache", 1024, "inprocess daemon: result cache capacity")
	shedWatermark := fs.Int("shed-watermark", 0, "inprocess daemon: queue depth that sheds new work (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mode != "closed" && *mode != "open" {
		return fmt.Errorf("unknown -mode %q (want closed or open)", *mode)
	}
	if *keyspace < 1 {
		return fmt.Errorf("-keyspace must be >= 1")
	}
	if *concurrency < 1 {
		*concurrency = 1
	}
	if *addr == "" && !*inprocess {
		return fmt.Errorf("need -addr or -inprocess")
	}

	if *inprocess {
		stop, base, err := startInprocess(*workers, *queue, *cache, *shedWatermark)
		if err != nil {
			return err
		}
		defer stop()
		*addr = base
	}

	specs := buildSpecs(*keyspace, *tteFrac, *seed)
	client := &http.Client{Timeout: *timeout, Transport: &http.Transport{
		MaxIdleConns: 4 * *concurrency, MaxIdleConnsPerHost: 4 * *concurrency,
	}}
	defer client.CloseIdleConnections()

	if *prime {
		if err := primeKeys(ctx, client, *addr, specs); err != nil {
			return fmt.Errorf("prime: %w", err)
		}
	}

	rec := newRecorder()
	start := time.Now()
	var err error
	if *mode == "closed" {
		err = driveClosed(ctx, client, *addr, specs, rec, *concurrency, *requests, *duration, *seed)
	} else {
		err = driveOpen(ctx, client, *addr, specs, rec, *rps, *maxInflight, *requests, *duration, *seed)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	rep := rec.report(*mode, *rps, *concurrency, *keyspace, *tteFrac, *seed, elapsed)
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, enc, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "capman-loadgen: %d requests in %s (%.0f rps, hit rate %.2f, shed rate %.2f) -> %s\n",
			rep.Requests, elapsed.Round(time.Millisecond), rep.ThroughputRPS, rep.HitRate, rep.ShedRate, *reportPath)
	} else if _, err := out.Write(enc); err != nil {
		return err
	}

	if *expectNoErrors && rep.Errors > 0 {
		return fmt.Errorf("%d requests errored (statusCounts %v)", rep.Errors, rep.StatusCounts)
	}
	if *minHitRate >= 0 && rep.HitRate < *minHitRate {
		return fmt.Errorf("cache-hit rate %.3f below required %.3f", rep.HitRate, *minHitRate)
	}
	return nil
}

// startInprocess boots a loopback capmand with the telemetry plane off
// (the load test exercises the job API, not the scraper) and returns its
// base URL plus a stop function that drains it.
func startInprocess(workers, queue, cache, shedWatermark int) (stop func(), base string, err error) {
	srv := server.New(server.Config{
		Logger: obs.Nop(),
		Executor: server.ExecutorConfig{
			Workers:            workers,
			QueueDepth:         queue,
			CacheSize:          cache,
			ShedQueueWatermark: shedWatermark,
		},
		Telemetry: server.TelemetryConfig{Disable: true},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	stop = func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(shutCtx)
		_ = httpSrv.Shutdown(shutCtx)
	}
	return stop, "http://" + ln.Addr().String(), nil
}

// buildSpecs maps every key in [0, keyspace) to one deterministic spec.
// The first round(tteFrac*keyspace) keys are Monte Carlo time-to-empty
// jobs; the rest are short discharge simulations. Seeds fold in the run
// seed so different -seed values produce disjoint cache populations.
func buildSpecs(keyspace int, tteFrac float64, seed int64) []server.JobSpec {
	ttes := int(tteFrac*float64(keyspace) + 0.5)
	specs := make([]server.JobSpec, keyspace)
	for i := range specs {
		jobSeed := seed*1_000_000 + int64(i)
		if i < ttes {
			specs[i] = server.JobSpec{
				Kind: "tte", Workload: "video", Seed: jobSeed,
				TTE: &server.TTEParams{Twins: 8, HorizonS: 300},
			}
		} else {
			specs[i] = server.JobSpec{
				Workload: "video", Policy: "dual", Seed: jobSeed,
				BigMAh: 300, LittleMAh: 300, MaxTimeS: 2000,
			}
		}
	}
	return specs
}

// primeKeys submits every spec once and polls each job to a terminal
// state so the measured run starts against a fully populated cache.
func primeKeys(ctx context.Context, client *http.Client, addr string, specs []server.JobSpec) error {
	for i := range specs {
		view, status, _, err := submitSpec(ctx, client, addr, &specs[i])
		if err != nil {
			return err
		}
		switch status {
		case http.StatusOK:
			continue // already cached
		case http.StatusAccepted:
		default:
			return fmt.Errorf("key %d: submit status %d", i, status)
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			resp, err := client.Get(addr + "/v1/jobs/" + view.ID)
			if err != nil {
				return err
			}
			var v server.View
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if v.State.Terminal() {
				if v.State != server.StateDone {
					return fmt.Errorf("key %d: prime job ended %s: %s", i, v.State, v.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("key %d: prime job %s never finished", i, view.ID)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// submitSpec posts one job. Every request carries a freshly minted W3C
// traceparent, whose trace ID the daemon adopts as the job's request ID,
// so the client's view of a slow request joins the daemon's log lines
// and server-side waterfall; the ID is returned for the report's
// slowest-traces table.
func submitSpec(ctx context.Context, client *http.Client, addr string, spec *server.JobSpec) (server.View, int, string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return server.View{}, 0, "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return server.View{}, 0, "", err
	}
	tc := obs.NewTraceContext()
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", tc.Traceparent())
	resp, err := client.Do(req)
	if err != nil {
		return server.View{}, 0, tc.TraceID.String(), err
	}
	defer resp.Body.Close()
	var view server.View
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			return server.View{}, resp.StatusCode, tc.TraceID.String(), err
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return view, resp.StatusCode, tc.TraceID.String(), nil
}

// driveClosed runs `concurrency` workers, each keeping one request in
// flight, until the shared request budget or the wall clock runs out.
func driveClosed(ctx context.Context, client *http.Client, addr string, specs []server.JobSpec,
	rec *recorder, concurrency int, requests int64, duration time.Duration, seed int64) error {
	var next atomic.Int64
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(w)))
			for ctx.Err() == nil {
				if requests > 0 {
					if next.Add(1) > requests {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				doOne(ctx, client, addr, &specs[rng.Intn(len(specs))], rec)
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}

// driveOpen dispatches on a fixed clock derived from -rps. Completions
// do not gate dispatch; the only brake is the in-flight cap, and
// dispatches that would exceed it are counted as locally dropped.
func driveOpen(ctx context.Context, client *http.Client, addr string, specs []server.JobSpec,
	rec *recorder, rps float64, maxInflight int, requests int64, duration time.Duration, seed int64) error {
	if rps <= 0 {
		return fmt.Errorf("-mode open needs -rps > 0")
	}
	if maxInflight < 1 {
		maxInflight = 1
	}
	interval := time.Duration(float64(time.Second) / rps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	sem := make(chan struct{}, maxInflight)
	rng := rand.New(rand.NewSource(seed * 31))
	deadline := time.Now().Add(duration)
	var sent int64
	var wg sync.WaitGroup
loop:
	for {
		if requests > 0 {
			if sent >= requests {
				break
			}
		} else if time.Now().After(deadline) {
			break
		}
		select {
		case <-ctx.Done():
			break loop
		case <-ticker.C:
		}
		sent++
		spec := &specs[rng.Intn(len(specs))]
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				doOne(ctx, client, addr, spec, rec)
			}()
		default:
			rec.drop()
		}
	}
	wg.Wait()
	return ctx.Err()
}

func doOne(ctx context.Context, client *http.Client, addr string, spec *server.JobSpec, rec *recorder) {
	start := time.Now()
	_, status, traceID, err := submitSpec(ctx, client, addr, spec)
	rec.record(status, err, time.Since(start), traceID)
}

// histBoundsMs are the latency histogram's upper bounds in milliseconds.
var histBoundsMs = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000}

type recorder struct {
	mu           sync.Mutex
	samples      []sample
	statusCounts map[string]int64
	hits         int64
	accepted     int64
	shed         int64
	errors       int64
	dropped      int64
}

// sample is one completed request: its latency, the trace ID the client
// minted for it, and the HTTP status (0 for transport errors).
type sample struct {
	latMs   float64
	traceID string
	status  int
}

func newRecorder() *recorder {
	return &recorder{statusCounts: make(map[string]int64)}
}

func (r *recorder) record(status int, err error, lat time.Duration, traceID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, sample{
		latMs: float64(lat) / float64(time.Millisecond), traceID: traceID, status: status,
	})
	if err != nil {
		r.errors++
		r.statusCounts["error"]++
		return
	}
	r.statusCounts[fmt.Sprint(status)]++
	switch status {
	case http.StatusOK:
		r.hits++
	case http.StatusAccepted:
		r.accepted++
	case http.StatusTooManyRequests:
		r.shed++
	default:
		r.errors++
	}
}

func (r *recorder) drop() {
	r.mu.Lock()
	r.dropped++
	r.mu.Unlock()
}

// Report is the JSON document capman-loadgen emits; scripts/benchjson
// embeds it verbatim into BENCH_serve.json.
type Report struct {
	Mode          string            `json:"mode"`
	TargetRPS     float64           `json:"targetRPS,omitempty"`
	Concurrency   int               `json:"concurrency"`
	Keyspace      int               `json:"keyspace"`
	TTEFraction   float64           `json:"tteFraction"`
	Seed          int64             `json:"seed"`
	Requests      int64             `json:"requests"`
	DurationS     float64           `json:"durationS"`
	ThroughputRPS float64           `json:"throughputRPS"`
	Hits          int64             `json:"hits"`
	Accepted      int64             `json:"accepted"`
	Shed          int64             `json:"shed"`
	Errors        int64             `json:"errors"`
	DroppedLocal  int64             `json:"droppedLocal,omitempty"`
	HitRate       float64           `json:"hitRate"`
	ShedRate      float64           `json:"shedRate"`
	Latency       LatencySummary    `json:"latency"`
	StatusCounts  map[string]int64  `json:"statusCounts"`
	Histogram     []HistogramBucket `json:"histogram"`

	// SlowestTraces lists the top-5 slowest requests with the trace IDs
	// the client minted for them, slowest first — paste one into
	// `capman-spans -id` (or GET /v1/traces/{id}) for the server-side
	// waterfall, if the tail sampler retained it.
	SlowestTraces []SlowTrace `json:"slowestTraces,omitempty"`
}

// SlowTrace is one row of the slowest-requests table.
type SlowTrace struct {
	TraceID   string  `json:"traceId"`
	LatencyMs float64 `json:"latencyMs"`
	Status    int     `json:"status,omitempty"`
}

type LatencySummary struct {
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MaxMs  float64 `json:"maxMs"`
}

// HistogramBucket is cumulative, Prometheus-style: Count is the number
// of requests at or below LeMs milliseconds; LeMs < 0 marks +Inf.
type HistogramBucket struct {
	LeMs  float64 `json:"leMs"`
	Count int64   `json:"count"`
}

func (r *recorder) report(mode string, rps float64, concurrency, keyspace int,
	tteFrac float64, seed int64, elapsed time.Duration) Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := int64(len(r.samples))
	rep := Report{
		Mode: mode, Concurrency: concurrency, Keyspace: keyspace,
		TTEFraction: tteFrac, Seed: seed,
		Requests: total, DurationS: elapsed.Seconds(),
		Hits: r.hits, Accepted: r.accepted, Shed: r.shed, Errors: r.errors,
		DroppedLocal: r.dropped, StatusCounts: r.statusCounts,
	}
	if mode == "open" {
		rep.TargetRPS = rps
	}
	if elapsed > 0 {
		rep.ThroughputRPS = float64(total) / elapsed.Seconds()
	}
	if total > 0 {
		rep.HitRate = float64(r.hits) / float64(total)
		rep.ShedRate = float64(r.shed) / float64(total)
	}

	sorted := make([]float64, len(r.samples))
	for i, s := range r.samples {
		sorted[i] = s.latMs
	}
	sort.Float64s(sorted)
	if len(sorted) > 0 {
		var sum float64
		for _, v := range sorted {
			sum += v
		}
		rep.Latency = LatencySummary{
			MeanMs: sum / float64(len(sorted)),
			P50Ms:  quantile(sorted, 0.50),
			P95Ms:  quantile(sorted, 0.95),
			P99Ms:  quantile(sorted, 0.99),
			MaxMs:  sorted[len(sorted)-1],
		}
	}
	rep.Histogram = make([]HistogramBucket, 0, len(histBoundsMs)+1)
	for _, le := range histBoundsMs {
		n := int64(sort.SearchFloat64s(sorted, le))
		for int(n) < len(sorted) && sorted[n] == le {
			n++ // bucket is inclusive of its bound
		}
		rep.Histogram = append(rep.Histogram, HistogramBucket{LeMs: le, Count: n})
	}
	rep.Histogram = append(rep.Histogram, HistogramBucket{LeMs: -1, Count: total})

	slowest := append([]sample(nil), r.samples...)
	sort.Slice(slowest, func(i, j int) bool { return slowest[i].latMs > slowest[j].latMs })
	if len(slowest) > 5 {
		slowest = slowest[:5]
	}
	for _, s := range slowest {
		rep.SlowestTraces = append(rep.SlowestTraces, SlowTrace{
			TraceID: s.traceID, LatencyMs: s.latMs, Status: s.status,
		})
	}
	return rep
}

// quantile reads q from an ascending slice using the nearest-rank method.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted)) + 0.5)
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
