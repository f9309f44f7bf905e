package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// noObs are the daemon flags that turn request tracing, flight recording
// and the telemetry plane off, for the observability-cost comparison.
var noObs = []string{"-no-trace", "-no-flight", "-no-telemetry"}

// runTraced splits the workload into its layers. It replays the list once,
// joins the client's per-request spans with the daemon's own stamps and
// /metrics, measures the null-daemon floor and the cost of the daemon's
// observability, and times the layers' public functions in-process on the
// same specs.
func runTraced(o options, w *workload, ref float64) (*result, error) {
	var evicted int
	bodyFile := filepath.Join(o.dir, fmt.Sprintf("hit-body-%d.json", os.Getpid()))
	defer os.Remove(bodyFile)
	var captured *request
	traced, err := runRound(w, roundOpts{serve: o.serve}, func(c *client, rd *round) error {
		var err error
		if captured, err = captureHitBody(c, w, bodyFile); err != nil {
			return err
		}
		n, err := countEvictions(c, w)
		evicted = n
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	res := &result{
		Correct: traced.good == traced.attempted, Attempted: traced.attempted, Failed: traced.attempted - traced.good,
		detail: map[string]any{"workload": w.name, "seed": o.seed, "host_ref_ms": ref},
	}
	if !res.Correct {
		res.detail["failures"] = traced.failures
	}

	floor, err := nullFloor(w, captured, bodyFile)
	if err != nil {
		return nil, fmt.Errorf("null-daemon floor: %w", err)
	}
	hitDelta, missDelta, err := observabilityCost(o)
	if err != nil {
		return nil, fmt.Errorf("observability cost: %w", err)
	}
	ip, err := runInproc(w)
	if err != nil {
		return nil, err
	}

	// client
	res.set("client.floor_rtt_p50_us", floor*1000, "us")
	res.set("client.gen_late_p99_ms", percentile(sortedCopy(traced.late), 99), "ms")

	// server, from the traced replay joined with the daemon's stamps
	var hitTTR, missTTR, queue, wall, delivery, rest, overhead []float64
	for _, r := range traced.records {
		if !r.ok {
			continue
		}
		if r.req.wantHit {
			hitTTR = append(hitTTR, r.ttrMS)
			continue
		}
		v := &r.o.v
		q, wl := v.QueueWaitS*1000, v.WallS*1000
		d := ms(r.o.held().Sub(*v.FinishedAt))
		missTTR = append(missTTR, r.ttrMS)
		queue, wall, delivery = append(queue, q), append(wall, wl), append(delivery, d)
		rest = append(rest, r.ttrMS-q-wl-d)
	}
	for _, p := range traced.primed {
		if e, ok := ip.engineMS[p.v.Hash]; ok {
			overhead = append(overhead, p.v.WallS*1000-e)
		}
	}
	for _, r := range traced.records {
		if e, ok := ip.engineMS[r.req.hash]; ok && r.ok && !r.req.wantHit {
			overhead = append(overhead, r.o.v.WallS*1000-e)
		}
	}
	hits := traced.after.delta(traced.before, "capmand_cache_hits_total")
	misses := traced.after.delta(traced.before, "capmand_cache_misses_total")
	qs := sortedCopy(queue)
	qTail, _ := tailPercentile(len(qs))
	res.set("server.admission_hit_ns", ip.admissionNS, "ns")
	res.set("server.hit_rtt_p50_us", median(hitTTR)*1000, "us")
	res.set("server.cache_hit_ratio", hits/max(hits+misses, 1), "ratio")
	res.set("server.cache_evictions", float64(evicted), "count")
	res.set("server.queue_wait_p50_ms", percentile(qs, 50), "ms")
	res.set("server.queue_wait_tail_ms", percentile(qs, qTail), "ms")
	res.set("server.run_wall_p50_ms", median(wall), "ms")
	res.set("server.delivery_ms", median(delivery), "ms")
	res.set("server.registry_resolve_us", median(ip.resolveUS), "us")
	res.set("server.marshal_us", median(ip.marshalUS), "us")
	res.set("server.executor_overhead_ms", median(overhead), "ms")

	// sim, core, simstruct, mdp: the in-process replay of the sims
	perJob := func(x float64) float64 { return x / float64(max(ip.simJobs, 1)) }
	perStep := func(ns float64) float64 { return ns / float64(max(ip.steps, 1)) }
	res.set("sim.steps_per_job", perJob(float64(ip.steps)), "count")
	res.set("sim.ns_per_step", perStep(ip.runNS), "ns")
	for k, phase := range []string{"workload", "policy", "battery", "thermal", "tec"} {
		res.set("sim.phase_"+phase+"_ns_per_step", perStep(ip.phaseNS[k]), "ns")
	}
	daemonPhaseS := 0.0
	for _, phase := range []string{"workload", "policy", "battery", "thermal", "tec"} {
		daemonPhaseS += traced.after.delta(traced.before, `capman_sim_phase_seconds_total{phase="`+phase+`"}`)
	}
	res.set("sim.daemon_ns_per_step", daemonPhaseS*1e9/float64(max(traced.work.SimSteps, 1)), "ns")
	res.set("core.decision_p50_us", median(ip.decP50US), "us")
	res.set("core.decision_p99_us", median(ip.decP99US), "us")
	res.set("core.daemon_decision_p99_us", histQuantile(traced.after, traced.before, "capman_decision_latency_seconds", 0.99)*1e6, "us")
	res.set("core.refreshes_per_job", perJob(float64(ip.refreshes)), "count")
	res.set("core.refresh_ms_per_job", perJob(ip.refreshMS), "ms")
	res.set("simstruct.similarity_runs_per_job", perJob(float64(ip.simRuns)), "count")
	res.set("simstruct.emd_solves_per_run", median(ip.emdPerRun), "count")
	res.set("simstruct.compute_ms", median(ip.computeMS), "ms")
	res.set("simstruct.emd_p50_us", histQuantile(traced.after, traced.before, "capman_emd_latency_seconds", 0.5)*1e6, "us")
	res.set("mdp.value_iters_per_refresh", float64(ip.valueIters)/float64(max(ip.refreshes, 1)), "count")

	// twin: the in-process replay of the cohorts
	res.set("twin.new_ms", median(ip.newMS), "ms")
	res.set("twin.run_ms", median(ip.runMS), "ms")
	res.set("twin.twin_steps_per_s", median(ip.twinStepsPS), "1/s")
	res.set("twin.summarize_us", median(ip.summarizeUS), "us")

	// daemon
	res.set("daemon.ready_s", traced.readyS, "s")
	res.set("daemon.gc_cycles_per_result", traced.after.delta(traced.before, "go_gc_cycles_total")/float64(max(traced.good, 1)), "count")

	// observability cost, trace overhead, and what no layer accounts for
	res.set("obs.hit_cpu_us_delta", hitDelta*1000, "us")
	res.set("obs.miss_cpu_ms_delta", missDelta, "ms")
	// Every round takes the same client stamps (time to result needs
	// them) and keeps the same records; spans are only written out after
	// the daemon has stopped. The benchmark's spans therefore cost the
	// measured requests nothing, by construction.
	res.set("trace.overhead_ms", 0, "ms")
	if len(hitTTR) >= len(missTTR) {
		// A hit's blocking layers: the client and loopback floor, then
		// admission; the rest is request decode and response write.
		res.set("unattributed_ms", median(hitTTR)-floor-ip.admissionNS/1e6, "ms")
	} else {
		// A miss's blocking layers: resolve, queue, run and delivery; the
		// rest is the submission's HTTP ingress.
		res.set("unattributed_ms", median(rest)-median(ip.resolveUS)/1000, "ms")
	}
	res.set("host.ref_ms", ref, "ms")

	spans := filepath.Join(o.dir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.seed))
	if err := writeSpans(spans, traced.records); err != nil {
		return nil, err
	}
	res.detail["spans"] = spans
	res.detail["sim_jobs_inproc"] = ip.simJobs
	res.detail["cohorts_inproc"] = ip.cohorts
	return res, nil
}

// captureHitBody saves one real cache-hit response for the null daemon:
// the first primed key, or the first completed job of a miss workload.
// It returns the request the response answers.
func captureHitBody(c *client, w *workload, path string) (*request, error) {
	r := w.list[0]
	if len(w.keys) > 0 {
		r = w.keys[0]
	}
	status, b, _, err := c.call(http.MethodPost, r.path, r.body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("hit-body capture: status %d", status)
	}
	hit := *r
	hit.wantHit = true
	return &hit, os.WriteFile(path, b, 0o644)
}

// countEvictions counts cache evictions from outside: after the replay it
// re-submits every spec the round completed; one that misses was evicted
// (each was inserted once), and its new job is cancelled at once, so the
// probe itself evicts nothing.
func countEvictions(c *client, w *workload) (evicted int, err error) {
	seen := make(map[string]bool)
	for _, batch := range [][]*request{w.keys, w.warm, w.list} {
		for _, r := range batch {
			if seen[r.hash] {
				continue
			}
			seen[r.hash] = true
			status, b, _, err := c.call(http.MethodPost, r.path, r.body)
			if err != nil {
				return 0, err
			}
			if status == http.StatusOK {
				continue
			}
			var v view
			if status != http.StatusAccepted || json.Unmarshal(b, &v) != nil {
				return 0, fmt.Errorf("eviction probe: status %d", status)
			}
			evicted++
			if _, _, _, err := c.call(http.MethodDelete, "/v1/jobs/"+v.ID, nil); err != nil {
				return 0, err
			}
		}
	}
	return evicted, nil
}

// nullFloor drives the null daemon with the workload's hit traffic shape
// (two closed-loop clients, same request bodies, the same check of each
// hit response) and returns the median round trip in ms.
func nullFloor(w *workload, hit *request, bodyFile string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	body, err := os.ReadFile(bodyFile)
	if err != nil {
		return 0, err
	}
	var v view
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, fmt.Errorf("captured hit body: %w", err)
	}
	d, err := startDaemon(self, "-null-body", bodyFile)
	if err != nil {
		return 0, err
	}
	defer d.stop()
	c := newClient(d.base)
	defer c.close()
	n := min(len(w.list), 4000)
	rtt := make([]float64, n)
	var (
		mu     sync.Mutex
		failed error
	)
	closedLoop(n, func(i int) {
		r := w.list[i]
		status, b, ex, err := c.call(http.MethodPost, r.path, r.body)
		rtt[i] = ms(ex.body.Sub(ex.sent))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("null daemon answered %d", status)
		}
		if err == nil {
			err = matchHit(b, hit, v.Outcome)
		}
		if err != nil {
			mu.Lock()
			failed = err
			mu.Unlock()
		}
	})
	if failed != nil {
		return 0, failed
	}
	return median(rtt), nil
}

// obsShare is the fraction (1/obsShare) of a round's list each
// observability-cost replay uses, and obsPairs how many alternated pairs
// of replays each delta is the median of.
const (
	obsShare = 4
	obsPairs = 4
)

// observabilityCost runs small hit and miss-capman replays against a
// default daemon and one started without tracing, flight recording and
// telemetry, alternating, and returns the daemon CPU per result saved by
// turning them off (ms). Both sides poll for completion, because the
// stripped daemon has no stream, so the polling cost cancels out. The
// default side keeps an idle /v1/stream subscriber through its miss
// replay, as the measured miss workloads do, so the delta includes the
// telemetry the daemon builds for a subscriber.
func observabilityCost(o options) (hit, miss float64, err error) {
	costs := func(name string) (float64, error) {
		w, err := buildWorkload(name, o.seed)
		if err != nil {
			return 0, err
		}
		w.list = w.list[:len(w.list)/obsShare]
		var on, off []float64
		sides := []roundOpts{
			{serve: o.serve, stream: streamIdle},
			{serve: o.serve, daemonArgs: noObs, stream: streamOff},
		}
		for rep := 0; rep < obsPairs; rep++ {
			for _, opt := range sides {
				rd, err := runRound(w, opt, nil)
				if err != nil {
					return 0, err
				}
				if rd.good != rd.attempted {
					return 0, fmt.Errorf("%s replay failed: %v", name, rd.failures)
				}
				per := 1000 * rd.cpuS / float64(rd.good)
				if opt.stream == streamIdle {
					on = append(on, per)
				} else {
					off = append(off, per)
				}
			}
		}
		return median(on) - median(off), nil
	}
	if hit, err = costs(wlHit); err != nil {
		return 0, 0, err
	}
	miss, err = costs(wlMissCapman)
	return hit, miss, err
}

// span is one timed interval of a request, written out after the run.
type span struct {
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeSpans dumps the traced replay's per-request spans as JSON lines,
// times relative to the first request: client send, headers and body of
// the submission; for misses the ack, the wait for completion, the
// outcome fetch, and the daemon's queue and run stamps.
func writeSpans(path string, recs []record) error {
	if len(recs) == 0 {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t0 := recs[0].due
	at := func(t time.Time) int64 { return int64(t.Sub(t0)) }
	for i, r := range recs {
		o := &r.o
		put := func(name, parent string, a, b time.Time) {
			if a.IsZero() || b.IsZero() {
				return
			}
			_ = enc.Encode(span{Req: i, Name: name, Parent: parent, StartNs: at(a), EndNs: at(b)})
		}
		put("request", "", r.due, o.held())
		put("send", "request", o.post.sent, o.post.headers)
		put("body", "request", o.post.headers, o.post.body)
		if r.req.wantHit {
			continue
		}
		put("ack", "request", o.post.sent, o.post.body)
		put("completion", "request", o.post.body, o.completed)
		put("fetch", "request", o.fetch.sent, o.fetch.body)
		if v := o.v; v.StartedAt != nil && v.FinishedAt != nil {
			put("server.queue", "request", v.SubmittedAt, *v.StartedAt)
			put("server.run", "request", *v.StartedAt, *v.FinishedAt)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
