package obs

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"sort"
	"time"
)

// Event kinds recorded on spans (see Span.Event). Producers are free to
// add their own; these are the ones the repository emits.
const (
	FlightLog       = "log"       // a captured slog record
	FlightTimeline  = "timeline"  // a job lifecycle event (server timelines)
	FlightDegrade   = "degrade"   // a sched.Guard degraded-mode transition
	FlightNote      = "note"      // free-form breadcrumbs (run milestones)
	FlightInvariant = "invariant" // a safety-invariant violation (first per contract)
)

// FlightEvent is one point-in-time event on a span, and one entry in a
// flight box.
type FlightEvent struct {
	Seq    int               `json:"seq"`
	At     time.Time         `json:"at"`
	Kind   string            `json:"kind"`
	Name   string            `json:"name"`
	Detail string            `json:"detail,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// FlightBox is a self-contained snapshot of one unit of work (a capmand
// job, a capman-sim run) — the "black box" pulled from the wreckage of a
// failed job. Reason says why the box was cut; Events merges every span's
// events oldest first, and Spans carries the span forest they came from.
type FlightBox struct {
	CutAt  time.Time `json:"cutAt"`
	Reason string    `json:"reason"`
	// TraceID is the request trace the box belongs to (32 hex chars),
	// empty when the job ran untraced. The cutter sets it so a post-mortem
	// box and its /v1/traces/{id} waterfall are joinable.
	TraceID       string        `json:"trace_id,omitempty"`
	Events        []FlightEvent `json:"events"`
	DroppedEvents int           `json:"droppedEvents,omitempty"`
	Spans         []SpanNode    `json:"spans,omitempty"`
	DroppedSpans  int           `json:"droppedSpans,omitempty"`
}

// FlightBox cuts a black box from the recorder's current contents: the
// span tree, and the events of every span merged by time (each span's
// bound keeps its newest events). Safe on a nil recorder: the box then
// carries only the reason and the cut time.
func (r *Recorder) FlightBox(reason string) FlightBox {
	box := FlightBox{CutAt: time.Now(), Reason: reason, Spans: r.Tree(), DroppedSpans: r.Dropped()}
	var collect func(nodes []SpanNode)
	collect = func(nodes []SpanNode) {
		for i := range nodes {
			box.Events = append(box.Events, nodes[i].Events...)
			box.DroppedEvents += nodes[i].DroppedEvents
			collect(nodes[i].Children)
		}
	}
	collect(box.Spans)
	sort.SliceStable(box.Events, func(i, j int) bool { return box.Events[i].At.Before(box.Events[j].At) })
	return box
}

// WriteJSON dumps the box as indented JSON (capman-sim -flight).
func (b FlightBox) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// TeeHandler returns a slog handler that records every record as a
// FlightLog event on the span and then forwards to next (when next
// accepts the level). It is always Enabled, so debug-level breadcrumbs
// reach the black box even when the service logger is at info.
func (s *Span) TeeHandler(next slog.Handler) slog.Handler {
	if next == nil {
		next = discardHandler{}
	}
	if s == nil {
		return next
	}
	return &teeHandler{span: s, next: next}
}

type teeHandler struct {
	span  *Span
	attrs []slog.Attr
	next  slog.Handler
}

func (h *teeHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *teeHandler) Handle(ctx context.Context, rec slog.Record) error {
	var attrs map[string]string
	add := func(a slog.Attr) bool {
		if attrs == nil {
			attrs = make(map[string]string, rec.NumAttrs()+len(h.attrs))
		}
		attrs[a.Key] = a.Value.String()
		return true
	}
	for _, a := range h.attrs {
		add(a)
	}
	rec.Attrs(add)
	h.span.Event(FlightLog, rec.Level.String(), rec.Message, attrs)
	if h.next.Enabled(ctx, rec.Level) {
		return h.next.Handle(ctx, rec)
	}
	return nil
}

func (h *teeHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	merged := make([]slog.Attr, 0, len(h.attrs)+len(attrs))
	merged = append(merged, h.attrs...)
	merged = append(merged, attrs...)
	return &teeHandler{span: h.span, attrs: merged, next: h.next.WithAttrs(attrs)}
}

func (h *teeHandler) WithGroup(name string) slog.Handler {
	return &teeHandler{span: h.span, attrs: h.attrs, next: h.next.WithGroup(name)}
}
