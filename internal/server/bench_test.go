package server

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// BenchmarkAdmissionPath measures Submit's serving hot path. The "hit"
// subbenchmark is the one bench.sh hard-gates at 0 allocs/op: a cached
// spec must be served from the pooled canonicalization buffer and the
// cache lookup without touching the heap. "key" isolates the
// canonicalize+hash step shared by every request. "queue-full" prices
// one refusal: a fresh spec submitted while the one worker is blocked
// and the queue is full.
func BenchmarkAdmissionPath(b *testing.B) {
	spec := JobSpec{Workload: "video", Policy: "dual", Seed: 7,
		BigMAh: 300, LittleMAh: 300, MaxTimeS: 2000}

	b.Run("hit", func(b *testing.B) {
		e := NewExecutor(ExecutorConfig{Workers: 2})
		defer drainBench(b, e)
		v, err := e.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		awaitBench(b, e, v.ID)
		if v, err := e.Submit(spec); err != nil || !v.CacheHit {
			b.Fatalf("warmup hit failed: %+v %v", v, err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := e.Submit(spec)
			if err != nil || !v.CacheHit {
				b.Fatal("hit path missed")
			}
		}
	})

	b.Run("key", func(b *testing.B) {
		specKey(spec) // warm the pool
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := specKey(spec); !ok {
				b.Fatal("specKey bailed")
			}
		}
	})

	b.Run("queue-full", func(b *testing.B) {
		e := NewExecutor(ExecutorConfig{Workers: 1, QueueDepth: 1})
		stop := make(chan struct{})
		e.runFn = func(ctx context.Context, r runner) (*Outcome, error) {
			<-stop
			return nil, context.Canceled
		}
		defer drainBench(b, e)
		defer close(stop)
		for i := int64(0); i < 2; i++ { // one running, one queued
			fresh := spec
			fresh.Seed = -1 - i
			v, err := e.Submit(fresh)
			if err != nil {
				b.Fatal(err)
			}
			for i == 0 && v.State != StateRunning {
				time.Sleep(time.Millisecond)
				v, _ = e.Get(v.ID)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fresh := spec
			fresh.Seed = int64(1000 + i)
			if _, err := e.Submit(fresh); !errors.Is(err, ErrShed) {
				b.Fatalf("submission to a full queue returned %v, want ErrShed", err)
			}
		}
	})

	b.Run("hit-parallel", func(b *testing.B) {
		e := NewExecutor(ExecutorConfig{Workers: 2, CacheSize: 256})
		defer drainBench(b, e)
		// Prime 64 distinct cached outcomes so parallel readers walk
		// different entries, as distinct clients would.
		specs := make([]JobSpec, 64)
		for i := range specs {
			specs[i] = spec
			specs[i].Seed = int64(i)
			v, err := e.Submit(specs[i])
			if err != nil {
				b.Fatal(err)
			}
			awaitBench(b, e, v.ID)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				v, err := e.Submit(specs[i&63])
				if err != nil || !v.CacheHit {
					b.Fatal("hit path missed")
				}
				i++
			}
		})
	})
}

// BenchmarkCache isolates the cache layer: uncontended get/put, then
// parallel readers contending on its one lock.
func BenchmarkCache(b *testing.B) {
	const entries = 256
	build := func() (*Cache, []CacheKey) {
		c := NewCache(entries)
		keys := make([]CacheKey, entries)
		out := &Outcome{}
		for i := range keys {
			keys[i] = traceKey(i)
			c.put(&cacheEntry{key: keys[i], outcome: out})
		}
		return c, keys
	}

	b.Run("get", func(b *testing.B) {
		c, keys := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := c.lookup(keys[i&(entries-1)]); !ok {
				b.Fatal("miss")
			}
		}
	})

	b.Run("put", func(b *testing.B) {
		c, keys := build()
		out := &Outcome{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.put(&cacheEntry{key: keys[i&(entries-1)], outcome: out})
		}
	})

	b.Run("get-parallel", func(b *testing.B) {
		c, keys := build()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, ok := c.lookup(keys[i&(entries-1)]); !ok {
					b.Fatal("miss")
				}
				i++
			}
		})
	})
}

// BenchmarkServedStep prices a served capman step against a bare one.
// Every arm resolves the same capman-policy sims through the default
// registry: every phone profile × the video, pcmark and geekbench
// workloads on 200 mAh cells, the shape of capbench's miss-capman jobs.
// "bare" runs the resolved config as is; "served" runs it the way a worker
// does, with the executor's metrics sink, the default invariant checker,
// the EMD latency sink and a span recorder on the context.
// "served-parallel" runs served sims on two goroutines that share the
// executor's registry histograms, as capmand's two workers do, so the
// cross-core contention on them shows. One op is one sim; ns/step is the
// figure to compare (per goroutine in the parallel arm, so it reads as the
// serial arms do when nothing is shared), and the served-minus-bare gap is
// the host-side cost capmand adds to each step.
func BenchmarkServedStep(b *testing.B) {
	e := NewExecutor(ExecutorConfig{Workers: 1})
	defer drainBench(b, e)
	var specs []JobSpec
	for i, wl := range []string{"video", "pcmark", "geekbench"} {
		for j, phone := range []string{"Nexus", "Honor", "Lenovo"} {
			specs = append(specs, JobSpec{Profile: phone, Workload: wl, Policy: "capman",
				Seed: int64(100 + 3*i + j), BigMAh: 200, LittleMAh: 200})
		}
	}
	// run simulates spec i, served or bare, and returns its steps.
	run := func(i int, served bool) (int, error) {
		cfg, err := e.registry.Resolve(specs[i%len(specs)])
		if err != nil {
			return 0, err
		}
		ctx := context.Background()
		if served {
			cfg.Metrics = e.sink()
			cfg.Invariants = e.invariants
			if p, ok := cfg.Policy.(interface{ SetEMDLatency(*obs.Histogram) }); ok {
				p.SetEMDLatency(e.metrics.EMDLatency.Base())
			}
			ctx = obs.WithRecorder(ctx, obs.NewRecorder(0))
		}
		res, err := sim.RunContext(ctx, cfg)
		if err != nil {
			return 0, err
		}
		return res.Steps, nil
	}
	for _, served := range []bool{false, true} {
		name := "bare"
		if served {
			name = "served"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			steps := 0
			for i := 0; i < b.N; i++ {
				n, err := run(i, served)
				if err != nil {
					b.Fatal(err)
				}
				steps += n
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
		})
	}
	b.Run("served-parallel", func(b *testing.B) {
		const workers = 2
		b.ReportAllocs()
		var next, steps atomic.Int64
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			go func() {
				for {
					i := next.Add(1) - 1
					if i >= int64(b.N) {
						errs <- nil
						return
					}
					n, err := run(int(i), true)
					if err != nil {
						errs <- err
						return
					}
					steps.Add(int64(n))
				}
			}()
		}
		for w := 0; w < workers; w++ {
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(workers*b.Elapsed().Nanoseconds())/float64(steps.Load()), "ns/step")
	})
}

func drainBench(b *testing.B, e *Executor) {
	b.Helper()
	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	_ = e.Drain(ctx)
}

func awaitBench(b *testing.B, e *Executor, id string) {
	b.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v, err := e.Get(id)
		if err != nil {
			b.Fatalf("Get(%s): %v", id, err)
		}
		if v.State.Terminal() {
			if v.State != StateDone {
				b.Fatalf("job %s ended %s: %s", id, v.State, v.Error)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	b.Fatalf("job %s never finished", id)
}
