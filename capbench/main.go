// Command capbench is the repository's end-to-end benchmark of capmand.
// It builds nothing itself (run.sh builds capman-serve and capbench),
// starts the pre-built daemon as its own process with default flags once
// per round, drives it over loopback HTTP with at most two request
// connections, and reads the daemon's CPU time and peak RSS from /proc.
//
//	capbench -serve <capman-serve> -dir <workdir> --workload hit --seed 1 --seconds 14 --trace 0
//
// The last line of standard output is the result object; the line before
// it carries the run's diagnostics (work fingerprint, outcome digest, host
// reference timing). With --trace 1 the run reports the per-layer split
// instead of the end-to-end metrics. See README.md for what each workload
// and metric is for.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"time"
)

// clientGCPercent is the benchmark client's GOGC.
const clientGCPercent = 800

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capbench:", err)
		os.Exit(1)
	}
}

type options struct {
	serve    string
	dir      string
	workload string
	seed     int64
	seconds  int
	trace    int
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("capbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.serve, "serve", "", "pre-built capman-serve binary")
	fs.StringVar(&o.dir, "dir", "", "work directory for span dumps and the null daemon's body")
	fs.StringVar(&o.workload, "workload", "", "workload: hit, miss-capman or mixed")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 14, "measured seconds per run, in rounds of two to three seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 reports the per-layer split instead of end-to-end metrics")
	nullBody := fs.String("null-body", "", "serve this file's bytes to every request (null daemon)")
	addr := fs.String("addr", "127.0.0.1:0", "null daemon listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nullBody != "" {
		return serveNull(*addr, *nullBody, stdout)
	}
	if o.serve == "" {
		return errors.New("-serve: need the capman-serve binary")
	}
	if _, err := os.Stat(o.serve); err != nil {
		return fmt.Errorf("-serve: %w", err)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", o.trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", o.seconds)
	}
	w, err := buildWorkload(o.workload, o.seed)
	if err != nil {
		return err
	}
	// The client allocates a response body per request; collecting its
	// small heap rarely keeps client GC pauses out of the daemon's tails.
	debug.SetGCPercent(clientGCPercent)
	ref := hostReference()
	var res *result
	if o.trace == 1 {
		res, err = runTraced(o, w, ref)
	} else {
		res, err = runUntraced(o, w, ref)
	}
	if err != nil {
		return err
	}
	return res.print(stdout)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's output: diagnostics, then the result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	detail    map[string]any
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: finite(v), Unit: unit}
}

func (r *result) print(w io.Writer) error {
	d, err := json.Marshal(map[string]any{"detail": r.detail})
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", d, line)
	return err
}

// runUntraced measures the end-to-end metrics over rounds fresh daemons.
func runUntraced(o options, w *workload, ref float64) (*result, error) {
	var rs []*round
	for k := 0; k < w.rounds(o.seconds); k++ {
		rd, err := runRound(w, roundOpts{serve: o.serve}, nil)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", k+1, err)
		}
		rs = append(rs, rd)
	}
	res := endToEnd(w, rs)
	res.detail["host_ref_ms"] = ref
	res.detail["seed"] = o.seed
	res.detail["seconds"] = o.seconds
	return res, nil
}

// endToEnd folds rounds into the six end-to-end metrics. Each round is
// one independent measurement and every metric reports the median round;
// the tail reports the median window (see windowTails).
func endToEnd(w *workload, rs []*round) *result {
	res := &result{Correct: true, detail: map[string]any{"workload": w.name, "rounds": len(rs)}}
	var setup, goodput, cpu, rss, p50, tail, late []float64
	var tailP float64
	var fallbacks int
	var failures []string
	gc := 0.0
	for k, rd := range rs {
		res.Attempted += rd.attempted
		res.Failed += rd.attempted - rd.good
		failures = append(failures, rd.failures...)
		// Deterministic engines on identical inputs: every round must
		// produce the same outcomes and do the same work.
		if rd.digest != rs[0].digest || rd.work != rs[0].work {
			res.Failed += rd.good
			failures = append(failures, fmt.Sprintf("round %d: digest or work differs from round 1", k+1))
		}
		setup = append(setup, rd.setupS)
		goodput = append(goodput, float64(rd.good)/rd.timedS)
		p50 = append(p50, percentile(sortedCopy(rd.ttr), 50))
		var wt []float64
		wt, tailP = windowTails(rd.ttr)
		tail = append(tail, wt...)
		cpu = append(cpu, 1000*rd.cpuS/float64(max(rd.good, 1)))
		rss = append(rss, rd.rssMB)
		late = append(late, rd.late...)
		fallbacks += rd.fallbacks
		gc += rd.after.delta(rd.before, "go_gc_cycles_total")
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	res.set("setup_s", median(setup), "s")
	res.set("goodput_per_s", median(goodput), "1/s")
	res.set("ttr_p50_ms", median(p50), "ms")
	res.set("ttr_tail_ms", median(tail), "ms")
	res.set("cpu_ms_per_result", median(cpu), "ms")
	res.set("rss_peak_mb", median(rss), "MB")
	res.detail["ttr_tail_percentile"] = tailP
	res.detail["ttr_tail_window"] = min(len(w.list), tailWindow)
	res.detail["ttr_n_per_round"] = len(w.list)
	res.detail["digest"] = rs[0].digest
	res.detail["work"] = rs[0].work
	res.detail["gc_cycles"] = gc
	res.detail["stream_fallbacks"] = fallbacks
	res.detail["rounds_setup_s"] = setup
	res.detail["rounds_cpu_ms_per_result"] = cpu
	res.detail["rounds_ttr_tail_ms"] = tail
	if len(late) > 0 {
		res.detail["gen_late_p99_ms"] = percentile(sortedCopy(late), 99)
	}
	if len(failures) > 0 {
		res.detail["failures"] = failures
	}
	return res
}

// hostReference times a fixed memory-touching loop (strided passes over a
// 32 MiB buffer). It tells a slow host from a slow program; no metric is
// ever normalised by it.
func hostReference() float64 {
	buf := make([]uint64, 4<<20)
	start := time.Now()
	var acc uint64
	for pass := 0; pass < 8; pass++ {
		for i := pass; i < len(buf); i += 8 {
			buf[i] += uint64(i) ^ acc
			acc += buf[i]
		}
	}
	sinkRef = acc
	return ms(time.Since(start))
}

var sinkRef uint64
