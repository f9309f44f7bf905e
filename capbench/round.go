package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// roundOpts selects how one round runs.
type roundOpts struct {
	serve      string   // daemon binary
	daemonArgs []string // extra daemon flags; none means defaults
	stream     streamMode
}

// streamMode is how a round uses the daemon's /v1/stream.
type streamMode int

const (
	// streamFollow completes misses on the stream's job frames.
	streamFollow streamMode = iota
	// streamIdle keeps a subscriber open, so the daemon builds and sends
	// its telemetry as in a following round, but completes misses by
	// polling.
	streamIdle
	// streamOff does not subscribe (the daemon runs -no-telemetry) and
	// completes misses by polling.
	streamOff
)

// record is one timed request as the client saw it, joined with the
// server stamps from its View.
type record struct {
	req   *request
	due   time.Time // open loop: when it was due; closed loop: when sent
	o     outcome
	ok    bool
	ttrMS float64
}

// round is what one fresh daemon did for one replay of the list.
type round struct {
	readyS, setupS float64
	timedS, cpuS   float64
	rssMB          float64
	attempted      int
	good           int
	ttr            []float64 // ms per request; failedTTR for failures
	late           []float64 // ms per request, open loop only
	digest         string
	work           work
	failures       []string
	fallbacks      int
	before, after  promSample // /metrics around the timed phase
	primed         []outcome  // set-up jobs (server stamps)
	records        []record   // per request, in list order
}

// runRound starts a daemon, sets it up (primes the key space, runs the
// warm-up jobs), replays the workload's list while measuring, and stops
// the daemon again. hook, when set, runs against the still-live daemon
// after the measurement.
func runRound(w *workload, opt roundOpts, hook func(*client, *round) error) (*round, error) {
	d, err := startDaemon(opt.serve, opt.daemonArgs...)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	rd := &round{readyS: d.readyS}
	c := newClient(d.base)
	defer c.close()
	var sub *stream
	if opt.stream != streamOff {
		if sub, err = followStream(d.base); err != nil {
			return nil, err
		}
		defer sub.close()
		if opt.stream == streamFollow {
			c.stream = sub
		}
	}
	ctx := context.Background()

	// Set-up: the same fixed engine work every round.
	setup := newChecker()
	for _, batch := range [][]*request{w.keys, w.warm} {
		if len(batch) == 0 {
			continue
		}
		outs := make([]outcome, len(batch))
		closedLoop(len(batch), func(i int) {
			cold := *batch[i]
			cold.wantHit = false
			outs[i] = c.submit(ctx, &cold)
			setup.verify(&cold, &outs[i])
		})
		if len(setup.failures) > 0 {
			return nil, fmt.Errorf("set-up: %s", strings.Join(setup.failures, "; "))
		}
		rd.primed = append(rd.primed, outs...)
	}
	if !w.hasMisses() && sub != nil {
		// Pure hit traffic needs no completion feed; an idle subscriber
		// would only make the daemon build telemetry samples.
		sub.close()
		c.stream = nil
	}

	if rd.before, err = scrapeMetrics(c.http, d.base); err != nil {
		return nil, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	ck := setup.next()
	recs := make([]record, len(w.list))
	start := time.Now()
	rd.setupS = start.Sub(d.started).Seconds()
	one := func(i int, due time.Time) {
		r := &recs[i]
		r.req, r.due = w.list[i], due
		r.o = c.submit(ctx, r.req)
		r.ttrMS = ms(r.o.held().Sub(due))
		r.ok = ck.verify(r.req, &r.o)
		r.o.v.Outcome, r.o.hitBody = nil, nil // verified; keep only the stamps
	}
	if w.open {
		s := schedule{start: start, rate: w.rate}
		rd.late = openLoop(s, len(w.list), func(i int, due time.Time) (wait func()) {
			if !w.list[i].isTTE() {
				one(i, due)
				return nil
			}
			// A miss is handed off so that waiting for its completion
			// never holds up later arrivals.
			return func() { one(i, due) }
		})
	} else {
		closedLoop(len(w.list), func(i int) { one(i, time.Now()) })
	}
	rd.timedS = time.Since(start).Seconds()
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	rd.cpuS = cpu1 - cpu0
	if rd.after, err = scrapeMetrics(c.http, d.base); err != nil {
		return nil, err
	}
	if rd.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}

	rd.attempted = len(recs)
	for i := range recs {
		if !recs[i].ok {
			rd.ttr = append(rd.ttr, failedTTR)
			continue
		}
		rd.good++
		rd.ttr = append(rd.ttr, recs[i].ttrMS)
	}
	rd.digest, rd.work, rd.failures = ck.digest(), ck.work, ck.failures
	rd.work.Decisions = int(rd.after.delta(rd.before, "capman_decision_latency_seconds_count"))
	rd.work.EMDSolves = int(rd.after.delta(rd.before, "capman_emd_latency_seconds_count"))
	if c.stream != nil {
		rd.fallbacks = c.stream.fallbacks()
	}
	rd.records = recs
	if hook != nil {
		if err := hook(c, rd); err != nil {
			return nil, err
		}
	}
	return rd, nil
}

func (w *workload) hasMisses() bool {
	for _, r := range w.list {
		if !r.wantHit {
			return true
		}
	}
	return false
}

// closedLoop runs fn(i) for i in [0, n) from maxConns clients, each
// starting its next request only when its previous one has finished.
func closedLoop(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < maxConns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// openLoop sends request i at s.due(i) from maxConns senders, whatever
// earlier requests are doing, and returns how late (ms) each send was.
// send performs the part of a request that holds its sender and may
// return a continuation that finishes the request off the sender; openLoop
// waits for every continuation before it returns.
func openLoop(s schedule, n int, send func(i int, due time.Time) (wait func())) []float64 {
	late := make([]float64, n)
	var next atomic.Int64
	var senders, rest sync.WaitGroup
	for k := 0; k < maxConns; k++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := s.due(i)
				sleepUntil(due)
				late[i] = ms(s.lateness(i, time.Now()))
				if wait := send(i, due); wait != nil {
					rest.Add(1)
					go func() {
						defer rest.Done()
						wait()
					}()
				}
			}
		}()
	}
	senders.Wait()
	rest.Wait()
	return late
}

// spinWindow is how close to a due time the open loop stops sleeping and
// spins: timer wake-ups overshoot by up to a millisecond, which would
// otherwise land in every request's time to result as lateness.
const spinWindow = 300 * time.Microsecond

func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
