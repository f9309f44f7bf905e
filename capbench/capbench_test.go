package main

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 19, ok: false},
		{n: 20, want: 50, ok: true},
		{n: 40, want: 75, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 200, want: 95, ok: true},
		{n: 999, want: 95, ok: true}, // p99 would leave only 9 beyond
		{n: 1000, want: 99, ok: true},
		{n: 2000, want: 99.5, ok: true},
		{n: 40000, want: 99.95, ok: true},
	} {
		p, ok := tailPercentile(tc.n)
		if ok != tc.ok || (ok && p != tc.want) {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", tc.n, p, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rank(p, tc.n) < 10 {
			t.Errorf("n=%d: p%v leaves %d beyond", tc.n, p, tc.n-rank(p, tc.n))
		}
	}
}

func TestPercentileCountsFailuresAsMissing(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for i := 85; i < 100; i++ {
		xs[i] = failedTTR
	}
	s := sortedCopy(xs)
	if got := percentile(s, 50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := percentile(s, 90); got != failedTTR {
		t.Errorf("p90 = %v, want a failure", got)
	}
}

func TestScheduleDueAndLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	s := schedule{start: start, rate: 100}
	if got := s.due(0); !got.Equal(start) {
		t.Errorf("due(0) = %v, want start", got)
	}
	if got := s.due(250).Sub(start); got != 2500*time.Millisecond {
		t.Errorf("due(250) = start+%v, want start+2.5s", got)
	}
	if got := s.lateness(10, s.due(10).Add(-time.Millisecond)); got != 0 {
		t.Errorf("early send lateness = %v, want 0", got)
	}
	if got := s.lateness(10, s.due(10).Add(3*time.Millisecond)); got != 3*time.Millisecond {
		t.Errorf("lateness = %v, want 3ms", got)
	}
}

func TestOpenLoopKeepsScheduleAndCountsStalls(t *testing.T) {
	const n = 40
	s := schedule{start: time.Now().Add(5 * time.Millisecond), rate: 1000}
	var mu sync.Mutex
	sent := make([]time.Time, n)
	late := openLoop(s, n, func(i int, due time.Time) func() {
		mu.Lock()
		sent[i] = time.Now()
		mu.Unlock()
		if i == 10 || i == 11 {
			// Both senders stall: the arrivals due meanwhile go out late,
			// and their lateness is counted against the schedule.
			time.Sleep(30 * time.Millisecond)
		}
		return nil
	})
	for i, at := range sent {
		if at.Before(s.due(i)) {
			t.Errorf("request %d sent %v before it was due", i, s.due(i).Sub(at))
		}
	}
	var stalled int
	for _, l := range late {
		if l > 5 {
			stalled++
		}
	}
	if stalled == 0 {
		t.Errorf("a 30ms stall of both senders made no request late: %v", late)
	}
}

func TestOpenLoopWaitsForContinuations(t *testing.T) {
	var mu sync.Mutex
	finished := 0
	openLoop(schedule{start: time.Now(), rate: 10000}, 8, func(i int, due time.Time) func() {
		return func() {
			time.Sleep(10 * time.Millisecond)
			mu.Lock()
			finished++
			mu.Unlock()
		}
	})
	if finished != 8 {
		t.Errorf("openLoop returned with %d of 8 continuations finished", finished)
	}
}

func TestSpecListSameForSeed(t *testing.T) {
	for _, name := range []string{wlHit, wlMissCapman, wlMixed} {
		a, err := buildWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(hashes(a), hashes(b)) {
			t.Errorf("%s: two builds from seed 7 differ", name)
		}
		c, err := buildWorkload(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(hashes(a), hashes(c)) {
			t.Errorf("%s: seeds 7 and 8 give the same specs", name)
		}
	}
}

func hashes(w *workload) [][]string {
	var out [][]string
	for _, rs := range [][]*request{w.keys, w.warm, w.list} {
		var hs []string
		for _, r := range rs {
			hs = append(hs, r.hash)
		}
		out = append(out, hs)
	}
	return out
}

func TestMissKeysDistinct(t *testing.T) {
	for _, name := range []string{wlMissCapman, wlMixed} {
		w, err := buildWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for _, r := range w.keys {
			seen[r.hash] = true
		}
		misses := 0
		for _, rs := range [][]*request{w.warm, w.list} {
			for _, r := range rs {
				if r.wantHit {
					if !seen[r.hash] {
						t.Errorf("%s: hit on unprimed key %.12s", name, r.hash)
					}
					continue
				}
				if seen[r.hash] {
					t.Errorf("%s: miss key %.12s repeats", name, r.hash)
				}
				seen[r.hash] = true
				misses++
			}
		}
		if misses == 0 {
			t.Errorf("%s: no misses", name)
		}
	}
}

func TestHitWorkloadSendsOnlyPrimedKeys(t *testing.T) {
	w, err := buildWorkload(wlHit, 1)
	if err != nil {
		t.Fatal(err)
	}
	primed := make(map[string]bool)
	for _, r := range w.keys {
		primed[r.hash] = true
	}
	for _, r := range w.list {
		if !r.wantHit || !primed[r.hash] {
			t.Fatalf("hit workload sends %.12s, not a primed hit", r.hash)
		}
	}
}

func TestRoundsMeasureAboutTheRunLength(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seconds int
		want    int
	}{
		{wlMixed, 36, 18},
		{wlMissCapman, 36, 12},
		{wlHit, 36, 18},
		{wlMissCapman, 1, 1},
	} {
		w, err := buildWorkload(tc.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.rounds(tc.seconds); got != tc.want {
			t.Errorf("%s, %d s: %d rounds, want %d", tc.name, tc.seconds, got, tc.want)
		}
	}
	// mixed's list is exactly one round of its open-loop schedule.
	w, err := buildWorkload(wlMixed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(len(w.list)) / w.rate; got != float64(w.roundS) {
		t.Errorf("mixed list spans %v s, want %d", got, w.roundS)
	}
}

func TestMatchHitChecksEveryClaim(t *testing.T) {
	w, err := buildWorkload(wlHit, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := w.keys[0]
	outcome := []byte(`{"run":{"Steps":12,"EndReason":"time limit"}}`)
	body := func(hash, state string, hit bool, out []byte) []byte {
		return []byte(`{"id":"","hash":"` + hash + `","state":"` + state + `","outcome":` + string(out) +
			`,"cacheHit":` + map[bool]string{true: "true", false: "false"}[hit] + `,"submittedAt":"2026-01-01T00:00:00Z"}` + "\n")
	}
	if err := matchHit(body(r.hash, "done", true, outcome), r, outcome); err != nil {
		t.Errorf("a correct hit failed: %v", err)
	}
	for name, b := range map[string][]byte{
		"wrong hash":     body(w.keys[1].hash, "done", true, outcome),
		"not done":       body(r.hash, "failed", true, outcome),
		"not a hit":      body(r.hash, "done", false, outcome),
		"other outcome":  body(r.hash, "done", true, []byte(`{"run":{"Steps":13,"EndReason":"time limit"}}`)),
		"outcome prefix": body(r.hash, "done", true, outcome[:len(outcome)-2]),
	} {
		if err := matchHit(b, r, outcome); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWindowTailsTakeTheRulePerWindow(t *testing.T) {
	ttr := make([]float64, 8000)
	for i := range ttr {
		ttr[i] = float64(i % 1000) // every window holds 0..999
	}
	ttr[10] = 1e6 // one burst stays inside its window
	tails, p := windowTails(ttr)
	if len(tails) != 8 || p != 99 {
		t.Fatalf("8000 requests: %d windows at p%v, want 8 at p99", len(tails), p)
	}
	if got := median(tails); got != 989 {
		t.Errorf("median window tail = %v, want 989", got)
	}
	if tails, p := windowTails(make([]float64, 2500)); len(tails) != 2 || p != 99 {
		t.Errorf("2500 requests: %d windows at p%v, want 2 of 1250 at p99", len(tails), p)
	}
	if tails, p := windowTails(make([]float64, 100)); len(tails) != 1 || p != 90 {
		t.Errorf("100 requests: %d windows at p%v, want 1 at p90", len(tails), p)
	}
}
