package tsdb

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/metrics"
)

// at returns a fixed-epoch instant offset by d, so tests drive an exact
// scrape schedule.
func at(d time.Duration) time.Time {
	return time.Unix(1_700_000_000, 0).UTC().Add(d)
}

func newTestStore(t *testing.T, reg *metrics.Registry, cfg Config) *Store {
	t.Helper()
	cfg.Registry = reg
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestWindowMatch covers label matching: Window returns only the
// series carrying every requested label pair, in label order.
func TestWindowMatch(t *testing.T) {
	reg := metrics.NewRegistry()
	gv := reg.GaugeVec("queue_depth", "depth", "queue")
	fast, slow := gv.WithLabelValues("fast"), gv.WithLabelValues("slow")
	st := newTestStore(t, reg, Config{})
	for i := 0; i < 5; i++ {
		fast.Set(int64(10 + i))
		slow.Set(int64(20 + i))
		st.Sample(at(time.Duration(i) * time.Second))
	}

	ws := st.Window("queue_depth", map[string]string{"queue": "fast"}, at(0), at(4*time.Second))
	if len(ws) != 1 {
		t.Fatalf("windows = %d, want 1 (match filter)", len(ws))
	}
	if ws[0].Labels["queue"] != "fast" || ws[0].First != 10 || ws[0].Last != 14 {
		t.Errorf("fast window = %+v, want labels queue=fast, 10 -> 14", ws[0])
	}

	all := st.Window("queue_depth", nil, at(0), at(4*time.Second))
	if len(all) != 2 || all[0].Labels["queue"] != "fast" || all[1].Labels["queue"] != "slow" || all[1].Last != 24 {
		t.Errorf("unfiltered windows = %+v, want fast then slow", all)
	}
	for _, match := range []map[string]string{
		{"queue": "none"},
		{"zone": "fast"},
		{"queue": "fast", "zone": "cpu"},
	} {
		if got := st.Window("queue_depth", match, at(0), at(4*time.Second)); len(got) != 0 {
			t.Errorf("match %v selected %+v, want none", match, got)
		}
	}
}

// TestWindowRate covers counter differencing over windows that start
// inside the ring: each one-second window sees exactly its own events.
func TestWindowRate(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.Counter("jobs_done_total", "done")
	st := newTestStore(t, reg, Config{})
	for i := 0; i < 6; i++ {
		st.Sample(at(time.Duration(i) * time.Second))
		c.Add(3) // 3 events per second, landing after each scrape
	}
	for i := 1; i <= 5; i++ {
		from, to := at(time.Duration(i-1)*time.Second), at(time.Duration(i)*time.Second)
		ws := st.Window("jobs_done_total", nil, from, to)
		if len(ws) != 1 || ws[0].Delta != 3 || ws[0].Rate() != 3 || ws[0].Samples != 1 {
			t.Fatalf("window ending at %ds = %+v, want increase 3 at 3/s over 1 sample", i, ws)
		}
	}
	// The store's own tick counter is stored too, at one tick per second.
	ticks := st.Window("capman_tsdb_samples_total", nil, at(0), at(5*time.Second))
	if len(ticks) != 1 || ticks[0].Rate() != 1 {
		t.Errorf("store tick counter windows = %+v, want one at 1/s", ticks)
	}
}

// TestWindowQuantile covers windowed histogram quantiles from bucket
// deltas: each window sees only its own observations, interpolated
// exactly.
func TestWindowQuantile(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("wait_seconds", "wait", []float64{1, 2, 4})
	st := newTestStore(t, reg, Config{})

	st.Sample(at(0))
	h.Observe(0.5) // first second: all obs in (0,1]
	h.Observe(0.5)
	st.Sample(at(time.Second))
	h.Observe(3) // second second: all obs in (2,4]
	h.Observe(3)
	st.Sample(at(2 * time.Second))

	p50 := func(from, to time.Duration) float64 {
		t.Helper()
		ws := st.Window("wait_seconds", nil, at(from), at(to))
		if len(ws) != 1 {
			t.Fatalf("windows = %d, want 1", len(ws))
		}
		q, ok := ws[0].Quantile(0.5)
		if !ok {
			t.Fatalf("window [%s, %s] holds no observations", from, to)
		}
		return q
	}
	// First second: rank 1 of 2 in bucket (0,1] → 0 + 1*(1/2) = 0.5.
	if got := p50(0, time.Second); got != 0.5 {
		t.Errorf("first-second p50 = %v, want 0.5", got)
	}
	// Second second: rank 1 of 2 in bucket (2,4] → 2 + 2*(1/2) = 3.
	if got := p50(time.Second, 2*time.Second); got != 3 {
		t.Errorf("second-second p50 = %v, want 3", got)
	}
	// An empty window has no quantile; neither has a scalar series.
	if ws := st.Window("wait_seconds", nil, at(2*time.Second), at(2*time.Second)); len(ws) != 1 {
		t.Fatalf("empty-window stats = %+v", ws)
	} else if _, ok := ws[0].Quantile(0.5); ok {
		t.Error("empty window reported a quantile")
	}
	if _, ok := (WindowStats{}).Quantile(0.5); ok {
		t.Error("scalar window reported a quantile")
	}
}

// TestWindowDeterminism pins bit-identical reads: for fixed stored
// contents, concurrent readers get identical Window results while the
// sampler keeps appending newer points.
func TestWindowDeterminism(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.Counter("jobs_total", "jobs")
	h := reg.Histogram("lat_seconds", "lat", []float64{0.1, 1})
	st := newTestStore(t, reg, Config{})
	for i := 0; i < 30; i++ {
		c.Add(uint64(i))
		h.Observe(float64(i) / 10)
		st.Sample(at(time.Duration(i) * time.Second))
	}
	read := func() [][]WindowStats {
		return [][]WindowStats{
			st.Window("lat_seconds", nil, at(0), at(29*time.Second)),
			st.Window("lat_seconds", nil, at(10*time.Second), at(20*time.Second)),
			st.Window("jobs_total", nil, at(5*time.Second), at(29*time.Second)),
		}
	}
	ref := read()

	// The sampler appends points after the read windows, well inside
	// the ring's capacity, so no read window loses a point.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 30; i < DefaultCapacity/2; i++ {
			c.Add(uint64(i))
			h.Observe(float64(i) / 10)
			st.Sample(at(time.Duration(i) * time.Second))
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if got := read(); !reflect.DeepEqual(got, ref) {
					errs <- fmt.Sprintf("window stats diverged between concurrent readers:\n%+v\n%+v", got, ref)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestRingWraps covers retention: only the newest Capacity points
// survive.
func TestRingWraps(t *testing.T) {
	reg := metrics.NewRegistry()
	g := reg.Gauge("level", "level")
	st := newTestStore(t, reg, Config{Capacity: 4})
	for i := 0; i < 10; i++ {
		g.Set(int64(i))
		st.Sample(at(time.Duration(i) * time.Second))
	}
	ws := st.Window("level", nil, at(0), at(10*time.Second))
	if len(ws) != 1 {
		t.Fatalf("windows = %d, want 1", len(ws))
	}
	w := ws[0]
	if w.Samples != 4 || w.First != 6 || w.Last != 9 || w.Min != 6 || w.Max != 9 ||
		w.FromMS != at(6*time.Second).UnixMilli() || w.ToMS != at(9*time.Second).UnixMilli() {
		t.Fatalf("retained window = %+v, want the 4 points 6..9 at 6s..9s", w)
	}
}

// TestMaxSeries covers the cardinality bound: series past the cap are
// dropped and counted, and the survivors keep sampling.
func TestMaxSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	for i := 0; i <= DefaultMaxSeries; i++ {
		reg.Gauge(fmt.Sprintf("g%04d_level", i), "level").Set(int64(i))
	}
	st := newTestStore(t, reg, Config{Capacity: 2})
	st.Sample(at(0))
	st.Sample(at(time.Second))
	if st.Dropped() == 0 {
		t.Fatal("no series were dropped past DefaultMaxSeries")
	}
	var exp strings.Builder
	if err := reg.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\ncapman_tsdb_series %d\n", DefaultMaxSeries); !strings.Contains(exp.String(), want) {
		t.Fatalf("exposition lacks %q", want)
	}
	if ws := st.Window("g0000_level", nil, at(0), at(time.Second)); len(ws) != 1 || ws[0].ToMS != at(time.Second).UnixMilli() {
		t.Fatalf("surviving series window = %+v, want it sampled at 1s", ws)
	}
}

// TestWindowStats covers the windowed reductions the anomaly engine and
// live stream consume.
func TestWindowStats(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.Counter("errs_total", "errs")
	h := reg.Histogram("lat_seconds", "lat", []float64{0.1, 1})
	st := newTestStore(t, reg, Config{})

	st.Sample(at(0))
	for i := 1; i <= 10; i++ {
		c.Add(2)
		h.Observe(0.05) // good
		if i > 7 {
			h.Observe(5) // bad, last 3 ticks
		}
		st.Sample(at(time.Duration(i) * time.Second))
	}

	ws := st.Window("errs_total", nil, at(0), at(10*time.Second))
	if len(ws) != 1 {
		t.Fatalf("windows = %d, want 1", len(ws))
	}
	w := ws[0]
	if w.Delta != 20 || w.Samples != 10 {
		t.Errorf("Delta=%v Samples=%v, want 20, 10", w.Delta, w.Samples)
	}
	if r := w.Rate(); r != 2 {
		t.Errorf("Rate = %v, want 2/s", r)
	}

	hw := st.Window("lat_seconds", nil, at(0), at(10*time.Second))[0]
	if !hw.Hist || hw.Delta != 13 {
		t.Fatalf("hist window = %+v, want 13 observations", hw)
	}
	bad, total := hw.BadAbove(1)
	if bad != 3 || total != 13 {
		t.Errorf("BadAbove(1) = %d/%d, want 3/13", bad, total)
	}
	if q, ok := hw.Quantile(0.5); !ok || q > 0.1 {
		t.Errorf("windowed p50 = %v (ok=%v), want ≤ 0.1", q, ok)
	}

	// A window covering only the tail sees only the tail's observations.
	tail := st.Window("lat_seconds", nil, at(7*time.Second), at(10*time.Second))[0]
	bad, total = tail.BadAbove(1)
	if bad != 3 || total != 6 {
		t.Errorf("tail BadAbove(1) = %d/%d, want 3/6", bad, total)
	}
}

// TestStoreStartStop exercises the real ticker loop briefly.
func TestStoreStartStop(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Gauge("level", "level").Set(7)
	st := newTestStore(t, reg, Config{Interval: time.Millisecond})
	st.Start()
	deadline := time.Now().Add(2 * time.Second)
	for st.Samples() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st.Stop()
	if st.Samples() < 3 {
		t.Fatalf("samples = %d after 2s at 1ms interval", st.Samples())
	}
}

// TestBus covers fan-out, bounded-buffer drops, and unsubscribe
// semantics.
func TestBus(t *testing.T) {
	b := NewBus()
	s1 := b.Subscribe(4)
	s2 := b.Subscribe(1)
	if b.Subscribers() != 2 {
		t.Fatalf("subscribers = %d", b.Subscribers())
	}
	for i := 0; i < 4; i++ {
		b.Publish(EventSample, at(0), i)
	}
	if got := len(s1.C()); got != 4 {
		t.Errorf("s1 buffered %d, want 4", got)
	}
	if s2.Dropped() != 3 {
		t.Errorf("s2 dropped %d, want 3", s2.Dropped())
	}
	ev := <-s1.C()
	if ev.Seq != 1 || ev.Type != EventSample || ev.Data != 0 {
		t.Errorf("first event = %+v", ev)
	}
	b.Unsubscribe(s1)
	b.Unsubscribe(s1) // idempotent
	// Channel is drained then closed.
	n := 0
	for range s1.C() {
		n++
	}
	if n != 3 {
		t.Errorf("drained %d after unsubscribe, want 3", n)
	}
	b.Publish(EventJob, at(0), nil) // must not panic with s1 gone
	if b.Subscribers() != 1 {
		t.Errorf("subscribers = %d after unsubscribe", b.Subscribers())
	}
}

func TestBusClose(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(4)
	b.Publish(EventSample, at(0), 1)
	b.Close()
	b.Close() // idempotent

	// Buffered events drain, then the channel reports closed — this is
	// what unblocks streaming handlers during shutdown.
	if ev, ok := <-s.C(); !ok || ev.Data != 1 {
		t.Fatalf("pre-close event = %+v ok=%t", ev, ok)
	}
	if _, ok := <-s.C(); ok {
		t.Fatal("channel still open after Close")
	}
	b.Unsubscribe(s)                // must not double-close
	b.Publish(EventJob, at(0), nil) // no-op, no panic
	if b.Subscribers() != 0 {
		t.Errorf("subscribers = %d after close", b.Subscribers())
	}
	if late := b.Subscribe(1); late.C() == nil {
		t.Fatal("late subscriber has nil channel")
	} else if _, ok := <-late.C(); ok {
		t.Fatal("late subscriber channel not closed")
	}
}
