package server

import (
	"context"
	"runtime/pprof"
	"testing"
)

// TestCacheHitSubmitAllocFree is the tentpole's contract: once an
// outcome is cached, a duplicate submission is served with zero
// steady-state heap allocations — pooled canonical buffer, stack SHA-256,
// one cache-lock lookup, and a View minted from the frozen entry.
func TestCacheHitSubmitAllocFree(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 2})
	spec := fastSpec()
	v, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")

	// Warm the pools and verify the hit before measuring.
	hit, err := e.Submit(spec)
	if err != nil || !hit.CacheHit {
		t.Fatalf("warmup hit: view=%+v err=%v", hit, err)
	}
	avg := testing.AllocsPerRun(200, func() {
		v, err := e.Submit(spec)
		if err != nil || !v.CacheHit {
			t.Fatal("cache hit path missed")
		}
	})
	if avg != 0 {
		t.Errorf("cache-hit Submit allocates %.2f objects per call, want 0", avg)
	}
}

// TestJobExecutionCarriesPprofLabels: with -pprof, CPU samples segment by
// job kind and submitting request; the worker must run jobs under
// runtime/pprof.Do with both labels bound.
func TestJobExecutionCarriesPprofLabels(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1})
	type labels struct {
		kind, reqID string
		kindOK      bool
		reqOK       bool
	}
	got := make(chan labels, 1)
	e.runFn = func(ctx context.Context, r runner) (*Outcome, error) {
		var l labels
		l.kind, l.kindOK = pprof.Label(ctx, "kind")
		l.reqID, l.reqOK = pprof.Label(ctx, "request_id")
		got <- l
		return &Outcome{}, nil
	}

	v, err := e.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	l := <-got
	if !l.kindOK || l.kind != "sim" {
		t.Errorf(`pprof label kind = %q (ok %v), want "sim"`, l.kind, l.kindOK)
	}
	if !l.reqOK || l.reqID != v.RequestID {
		t.Errorf("pprof label request_id = %q (ok %v), want %q", l.reqID, l.reqOK, v.RequestID)
	}

	tte, err := e.Submit(JobSpec{Kind: "tte", Workload: "video",
		TTE: &TTEParams{Twins: 2, HorizonS: 60}})
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, tte.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	l = <-got
	if !l.kindOK || l.kind != "tte" {
		t.Errorf(`tte pprof label kind = %q (ok %v), want "tte"`, l.kind, l.kindOK)
	}
}
