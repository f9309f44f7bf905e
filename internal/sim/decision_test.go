package sim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
)

// driveSample feeds a decision sample the way the step loop does, with
// injected readings instead of the host clock: steps decisions, heavy(i)
// marking the heavy ones, step i's phases timed when i%phaseStride == 0,
// and a timed decision reading lat(i). It checks after every decision that
// none is lost between the merged histogram, the open batch and the open
// light decision, and returns the histogram after finish.
func driveSample(t *testing.T, steps int, heavy func(int) bool, lat func(int) time.Duration) *obs.Histogram {
	t.Helper()
	h := obs.MustHistogram(obs.LatencyBuckets()...)
	s := newDecisionSample(h, nil)
	for i := 0; i < steps; i++ {
		hv := heavy(i)
		if s.timed(hv, i%phaseStride == 0) {
			s.record(hv, lat(i))
		}
		if held := h.Count() + s.n + s.lightN; held != uint64(i+1) || s.n >= decisionFlush {
			t.Fatalf("after decision %d: %d merged + %d batched + %d open = %d, batch limit %d",
				i, h.Count(), s.n, s.lightN, held, decisionFlush)
		}
	}
	s.finish()
	return h
}

// TestDecisionSampleCountsEveryDecision: the histogram's count equals the
// number of decisions for any run length (ending on a sampled step,
// between samples, or after one decision) and any heavy pattern (none, a
// refresh cadence that starts at step 0 or later, a dense one). Heavy
// decisions carry weight 1, the light weights sum to the number of light
// decisions, and each light decision is counted at the latency of the
// latest timed light decision before it.
func TestDecisionSampleCountsEveryDecision(t *testing.T) {
	const heavyLat = time.Millisecond // alone in the 1 ms bucket
	heavyBucket := sort.SearchFloat64s(obs.LatencyBuckets(), heavyLat.Seconds())
	patterns := map[string]func(int) bool{
		"none":        func(int) bool { return false },
		"step0-every": func(i int) bool { return i%240 == 0 },
		"later-every": func(i int) bool { return i > 0 && i%240 == 0 },
		"dense":       func(i int) bool { return i%7 == 3 },
	}
	for name, heavy := range patterns {
		for _, steps := range []int{1, 2, 16, 17, 18, 240, 241, 1000, 1003} {
			// A timed light decision reads 100 ns plus its step index, so
			// the weighted sum pins which decision stands for which.
			lat := func(i int) time.Duration {
				if heavy(i) {
					return heavyLat
				}
				return 100*time.Nanosecond + time.Duration(i)
			}
			h := driveSample(t, steps, heavy, lat)

			var nHeavy uint64
			var wantSum float64
			rep := -1 // the latest timed light decision
			for i := 0; i < steps; i++ {
				switch {
				case heavy(i):
					nHeavy++
					wantSum += heavyLat.Seconds()
				default:
					if rep < 0 || i%phaseStride == 0 {
						rep = i
					}
					wantSum += lat(rep).Seconds()
				}
			}
			s := h.Snapshot()
			if s.Count != uint64(steps) {
				t.Errorf("%s/%d: count %d, want one per decision", name, steps, s.Count)
			}
			if s.Counts[heavyBucket] != nHeavy {
				t.Errorf("%s/%d: %d counts at the heavy latency, want %d heavy decisions at weight 1",
					name, steps, s.Counts[heavyBucket], nHeavy)
			}
			if light := s.Count - s.Counts[heavyBucket]; light != uint64(steps)-nHeavy {
				t.Errorf("%s/%d: light weights sum to %d, want %d light decisions", name, steps, light, uint64(steps)-nHeavy)
			}
			if math.Abs(s.Sum-wantSum) > 1e-12*wantSum {
				t.Errorf("%s/%d: weighted sum %v, want %v", name, steps, s.Sum, wantSum)
			}
		}
	}
}

// TestDecisionSampleMatchesExact runs the estimator and an exact
// histogram over the same synthetic readings, shaped like served CAPMAN
// runs: jittered sub-microsecond lookups, a rare preempted one, and a
// millisecond refresh every 240 steps. In every run the weighted mean
// stays within 5% of the exact one; over all runs, p50 and p99 land in
// the same bucket.
func TestDecisionSampleMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	heavy := func(i int) bool { return i%240 == 0 }
	allExact := obs.MustHistogram(obs.LatencyBuckets()...)
	allGot := obs.MustHistogram(obs.LatencyBuckets()...)
	for run := 0; run < 20; run++ {
		steps := 3000 + rng.Intn(3000)
		reads := make([]time.Duration, steps)
		exact := obs.MustHistogram(obs.LatencyBuckets()...)
		for i := range reads {
			d := 150*time.Nanosecond + time.Duration(rng.ExpFloat64()*60)
			if rng.Intn(1000) == 0 {
				d += 5 * time.Microsecond // a preempted lookup
			}
			if heavy(i) {
				d = 500*time.Microsecond + time.Duration(rng.Int63n(int64(time.Millisecond)))
			}
			reads[i] = d
			exact.Observe(d.Seconds())
		}
		got := driveSample(t, steps, heavy, func(i int) time.Duration { return reads[i] }).Snapshot()
		want := exact.Snapshot()
		if got.Count != want.Count {
			t.Fatalf("run %d: count %d, exact %d", run, got.Count, want.Count)
		}
		if rel := math.Abs(got.Mean()/want.Mean() - 1); rel > 0.05 {
			t.Errorf("run %d: mean %v, exact %v (%.1f%% off)", run, got.Mean(), want.Mean(), 100*rel)
		}
		allGot.Merge(got.Counts, got.Sum)
		allExact.Merge(want.Counts, want.Sum)
	}
	got, want := allGot.Snapshot(), allExact.Snapshot()
	for _, q := range []float64{0.5, 0.99} {
		bucket := func(s obs.HistogramSnapshot) int {
			return sort.SearchFloat64s(s.Bounds, s.Quantile(q))
		}
		if bucket(got) != bucket(want) {
			t.Errorf("p%g %v, exact %v: different buckets", 100*q, got.Quantile(q), want.Quantile(q))
		}
	}
}

// cancelAfter is CAPMAN's scheduler (RefreshDue included) cancelling its
// run from inside its n-th decision.
type cancelAfter struct {
	*core.Scheduler
	n, decided int
	cancel     context.CancelFunc
}

func (p *cancelAfter) Decide(ctx sched.Context) sched.Decision {
	if p.decided++; p.decided == p.n {
		p.cancel()
	}
	return p.Scheduler.Decide(ctx)
}

// TestCancelledRunMergesEveryDecision: a run cancelled mid-way, past
// several refreshes and between phase samples, leaves every decision it
// made in the sink's histogram, although the last batch was not full.
func TestCancelledRunMergesEveryDecision(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 1000 // not a multiple of decisionFlush or phaseStride
	p := &cancelAfter{Scheduler: capmanPolicy(t), n: n, cancel: cancel}
	lat := obs.MustHistogram(obs.LatencyBuckets()...)
	cfg := tracedConfig(t, p)
	cfg.Metrics = &MetricsSink{DecisionLatency: lat}
	if _, err := RunContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("run error %v, want context.Canceled", err)
	}
	if p.decided != n {
		t.Fatalf("policy decided %d times, want %d", p.decided, n)
	}
	if got := lat.Count(); got != n {
		t.Errorf("sink histogram holds %d decisions, want all %d", got, n)
	}
}
