package obs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeStructure(t *testing.T) {
	rec := NewRecorder(0)
	ctx := WithRecorder(context.Background(), rec)

	ctx, run := StartSpan(ctx, "run")
	_, step := StartSpan(ctx, "step")
	step.SetAttr("i", 1)
	time.Sleep(time.Millisecond)
	step.End()
	run.Aggregate("phase:policy", 250*time.Millisecond, 40)
	run.End()

	tree := rec.Tree()
	if len(tree) != 1 {
		t.Fatalf("roots = %d, want 1", len(tree))
	}
	root := tree[0]
	if root.Name != "run" || root.InProgress {
		t.Errorf("root = %+v", root)
	}
	if len(root.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(root.Children))
	}
	var gotStep, gotAgg bool
	for _, c := range root.Children {
		switch c.Name {
		case "step":
			gotStep = true
			if c.DurationMS <= 0 {
				t.Errorf("step duration %v, want > 0", c.DurationMS)
			}
			if c.Attrs["i"] != 1 {
				t.Errorf("step attrs = %v", c.Attrs)
			}
		case "phase:policy":
			gotAgg = true
			if got := c.DurationMS; got < 249 || got > 251 {
				t.Errorf("aggregate duration %vms, want 250", got)
			}
			if c.Attrs["count"] != 40 {
				t.Errorf("aggregate attrs = %v", c.Attrs)
			}
		}
	}
	if !gotStep || !gotAgg {
		t.Errorf("children missing: step=%v aggregate=%v", gotStep, gotAgg)
	}
	if got := rec.Len(); got != 3 {
		t.Errorf("Len = %d, want 3 nodes (run, step, aggregate)", got)
	}
	if root.DurationMS < 1 {
		t.Errorf("root duration %vms, want >= the child sleep", root.DurationMS)
	}
}

// TestSpanJSONDump: a recorder's tree, as a StoredTrace carries it,
// round-trips through JSON.
func TestSpanJSONDump(t *testing.T) {
	rec := NewRecorder(0)
	ctx, span := rec.StartSpan(context.Background(), "outer")
	_, inner := rec.StartSpan(ctx, "inner")
	inner.Event(FlightNote, "milestone", "ran", nil)
	inner.End()
	span.End()

	raw, err := json.Marshal(StoredTrace{Spans: rec.Tree(), DroppedSpans: rec.Dropped()})
	if err != nil {
		t.Fatal(err)
	}
	var back StoredTrace
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("dump does not parse: %v", err)
	}
	if len(back.Spans) != 1 || back.Spans[0].Name != "outer" ||
		len(back.Spans[0].Children) != 1 || back.Spans[0].Children[0].Name != "inner" ||
		len(back.Spans[0].Children[0].Events) != 1 {
		t.Errorf("dump tree = %+v", back.Spans)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var rec *Recorder
	ctx, span := rec.StartSpan(context.Background(), "ignored")
	if span != nil {
		t.Error("nil recorder produced a span")
	}
	if ctx == nil {
		t.Error("nil recorder dropped the context")
	}
	// All span methods must be no-ops on nil.
	span.End()
	span.SetAttr("k", "v")
	span.Aggregate("a", time.Second, 1)
	if d := span.Duration(); d != 0 {
		t.Errorf("nil span duration %v", d)
	}
	if rec.Tree() != nil || rec.Dropped() != 0 || rec.Len() != 0 {
		t.Error("nil recorder reported recorded state")
	}
	// A context without a recorder records nothing either.
	if _, s := StartSpan(context.Background(), "x"); s != nil {
		t.Error("recorder-less context produced a span")
	}
	if RecorderFrom(context.Background()) != nil {
		t.Error("bare context carries a recorder")
	}
}

func TestRecorderLimit(t *testing.T) {
	rec := NewRecorder(2)
	ctx := context.Background()
	_, a := rec.StartSpan(ctx, "a")
	_, b := rec.StartSpan(ctx, "b")
	_, c := rec.StartSpan(ctx, "c")
	if a == nil || b == nil {
		t.Fatal("spans under the limit were dropped")
	}
	if c != nil {
		t.Error("span past the limit was recorded")
	}
	if got := rec.Dropped(); got != 1 {
		t.Errorf("Dropped = %d, want 1", got)
	}
	if got := len(rec.Tree()); got != 2 {
		t.Errorf("tree roots = %d, want 2", got)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	rec := NewRecorder(0)
	ctx, root := rec.StartSpan(context.Background(), "root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, s := rec.StartSpan(ctx, "child")
			s.SetAttr("k", "v")
			s.End()
			rec.Len() // counts while siblings are still appended
		}()
	}
	wg.Wait()
	root.End()
	if got := len(rec.Tree()[0].Children); got != 16 {
		t.Errorf("children = %d, want 16", got)
	}
	if got := rec.Len(); got != 17 {
		t.Errorf("Len = %d, want 17", got)
	}
}
