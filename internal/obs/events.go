package obs

import (
	"context"
	"log/slog"
	"time"
)

// Event kinds recorded on spans (see Span.Event). Producers are free to
// add their own; these are the ones the repository emits.
const (
	FlightLog       = "log"       // a captured slog record
	FlightLifecycle = "lifecycle" // a job lifecycle event (a capmand job's root span)
	FlightDegrade   = "degrade"   // a sched.Guard degraded-mode transition
	FlightNote      = "note"      // free-form breadcrumbs (run milestones)
	FlightInvariant = "invariant" // a safety-invariant violation (first per contract)
)

// FlightEvent is one point-in-time event on a span: a lifecycle
// transition, an engine breadcrumb or a teed log record.
type FlightEvent struct {
	Seq    int               `json:"seq"`
	At     time.Time         `json:"at"`
	Kind   string            `json:"kind"`
	Name   string            `json:"name"`
	Detail string            `json:"detail,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// TeeHandler returns a slog handler that records every record as a
// FlightLog event on the span and then forwards to next (when next
// accepts the level). It is always Enabled, so debug-level breadcrumbs
// reach the span even when the service logger is at info.
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
