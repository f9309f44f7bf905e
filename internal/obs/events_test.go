package obs

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

// TestSpanEventsKeepNewest drives a span's event log past its bound: the
// length never exceeds DefaultSpanEvents, the newest events survive in
// order, Seq keeps counting across drops, and the drops are counted.
func TestSpanEventsKeepNewest(t *testing.T) {
	_, s := NewRecorder(0).StartSpan(context.Background(), "job")
	const n = DefaultSpanEvents * 3
	for i := 0; i < n; i++ {
		s.Event(FlightNote, "step", fmt.Sprintf("event %d", i), nil)
	}
	evs, dropped := s.Events()
	if len(evs) != DefaultSpanEvents {
		t.Fatalf("span holds %d events, want bound %d", len(evs), DefaultSpanEvents)
	}
	if dropped != n-DefaultSpanEvents {
		t.Errorf("dropped = %d, want %d", dropped, n-DefaultSpanEvents)
	}
	for i, ev := range evs {
		if want := n - DefaultSpanEvents + i + 1; ev.Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
		if i > 0 && ev.At.Before(evs[i-1].At) {
			t.Errorf("event %d timestamp went backwards", i)
		}
	}
	if got := evs[len(evs)-1].Detail; got != fmt.Sprintf("event %d", n-1) {
		t.Errorf("newest event detail = %q", got)
	}

	// The span tree carries the same events and drop count.
	node := s.node()
	if len(node.Events) != DefaultSpanEvents || node.DroppedEvents != dropped || node.Events[0].Seq != evs[0].Seq {
		t.Errorf("span node events: %d, dropped %d, first seq %d", len(node.Events), node.DroppedEvents, node.Events[0].Seq)
	}
}

// TestSpanEventsConcurrent: events written from several goroutines while
// readers snapshot the span all land, each with a distinct Seq (run with
// -race).
func TestSpanEventsConcurrent(t *testing.T) {
	rec := NewRecorder(0)
	_, s := rec.StartSpan(context.Background(), "job")
	const writers, each = 4, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.Event(FlightLifecycle, "retrying", "", nil)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.Events()
				rec.Tree()
			}
		}()
	}
	wg.Wait()
	evs, dropped := s.Events()
	if len(evs)+dropped != writers*each {
		t.Fatalf("%d events + %d dropped, want %d", len(evs), dropped, writers*each)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("event %d seq %d after %d", i, evs[i].Seq, evs[i-1].Seq)
		}
	}
}

func TestSpanEventsNilSafety(t *testing.T) {
	var s *Span
	s.Event(FlightNote, "x", "y", map[string]string{"a": "b"})
	if evs, dropped := s.Events(); evs != nil || dropped != 0 {
		t.Fatal("nil span must read empty")
	}
	slog.New(s.TeeHandler(nil)).Warn("discarded")
	var r *Recorder
	if tree := r.Tree(); tree != nil {
		t.Fatalf("nil recorder tree = %+v", tree)
	}
}

func TestFlightTeeHandlerCapturesLogs(t *testing.T) {
	_, s := NewRecorder(0).StartSpan(context.Background(), "job")
	var out bytes.Buffer
	base := slog.NewTextHandler(&out, &slog.HandlerOptions{Level: slog.LevelWarn})
	log := slog.New(s.TeeHandler(base)).With("job", "j1")

	log.Debug("below the sink's level", "k", "v")
	log.Warn("visible", "err", "boom")

	evs, _ := s.Events()
	if len(evs) != 2 {
		t.Fatalf("captured %d events, want 2 (tee sees every level)", len(evs))
	}
	if evs[0].Kind != FlightLog || evs[0].Name != "DEBUG" || evs[0].Detail != "below the sink's level" {
		t.Fatalf("first event = %+v", evs[0])
	}
	if evs[0].Attrs["job"] != "j1" || evs[0].Attrs["k"] != "v" {
		t.Fatalf("first event attrs = %v", evs[0].Attrs)
	}
	if evs[1].Attrs["err"] != "boom" {
		t.Fatalf("second event attrs = %v", evs[1].Attrs)
	}
	// The underlying handler still applies its own level gate.
	text := out.String()
	if strings.Contains(text, "below the sink's level") || !strings.Contains(text, "visible") {
		t.Fatalf("forwarded output wrong:\n%s", text)
	}
}
