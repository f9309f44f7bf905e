// Command capman-spans renders request-trace waterfalls from a running
// capmand. List mode searches the daemon's retained records: its newest
// 512 finished jobs, and its newest 512 requests that never became jobs
// (refusals at admission, traced cache hits). Waterfall mode fetches one
// record by ID and draws its span tree as an ANSI Gantt chart — queue
// wait, the run, and every engine phase on one time axis — with each
// span's events (lifecycle, degradations, invariant breaches, notes,
// teed logs) listed under its bar.
//
// Usage:
//
//	capman-spans -addr http://localhost:8080                  # list retained traces
//	capman-spans -addr http://localhost:8080 -id <trace-id>   # one waterfall
//	capman-spans -min-dur 100ms -outcome failed -kind tte     # filtered search
//	capman-spans -file trace.json -plain                      # offline dump, no ANSI
//
// -file renders any saved obs.StoredTrace: a job's record from
// GET /v1/jobs/{id}/trace, or the file capman-sim -trace writes. Trace
// IDs come from job views (traceId), capman-top's recent-traces panel,
// or list mode itself (-min-dur finds the slow ones).
// Only the standard library is used; wire types come from the server and
// obs packages so the client cannot drift from the daemon.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capman-spans:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("capman-spans", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "base URL of the capmand to query")
	id := fs.String("id", "", "trace ID to render as a waterfall (empty = list mode)")
	file := fs.String("file", "", "render a dumped trace JSON file instead of querying a daemon")
	minDur := fs.Duration("min-dur", 0, "list mode: only traces at least this long")
	outcome := fs.String("outcome", "", "list mode: only traces with this outcome (done|failed|cancelled|shed)")
	kind := fs.String("kind", "", "list mode: only traces of this job kind (sim|tte)")
	limit := fs.Int("limit", 0, "list mode: max rows (0 = server default)")
	width := fs.Int("width", 48, "waterfall bar width in characters")
	plain := fs.Bool("plain", false, "no ANSI colors (scripting / CI)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *width < 8 {
		*width = 8
	}

	if *file != "" {
		raw, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		var tr obs.StoredTrace
		if err := json.Unmarshal(raw, &tr); err != nil {
			return fmt.Errorf("decode %s: %w", *file, err)
		}
		renderWaterfall(out, &tr, *width, !*plain)
		return nil
	}
	base := strings.TrimRight(*addr, "/")
	if *id != "" {
		tr, err := fetchTrace(ctx, base, *id)
		if err != nil {
			return err
		}
		renderWaterfall(out, tr, *width, !*plain)
		return nil
	}
	return listTraces(ctx, base, *minDur, *outcome, *kind, *limit, out)
}

// fetchTrace gets one retained trace by ID from GET /v1/traces/{id}.
func fetchTrace(ctx context.Context, base, id string) (*obs.StoredTrace, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/traces/"+url.PathEscape(id), nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	var tr obs.StoredTrace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// listTraces searches GET /v1/traces and prints one row per trace,
// newest first, plus the store's retention accounting.
func listTraces(ctx context.Context, base string, minDur time.Duration, outcome, kind string, limit int, out io.Writer) error {
	q := url.Values{}
	if minDur > 0 {
		q.Set("min_dur", minDur.String())
	}
	if outcome != "" {
		q.Set("outcome", outcome)
	}
	if kind != "" {
		q.Set("kind", kind)
	}
	if limit > 0 {
		q.Set("limit", fmt.Sprint(limit))
	}
	u := base + "/v1/traces"
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	var body struct {
		Traces []server.TraceSummary `json:"traces"`
		Stats  obs.TraceStoreStats   `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return err
	}
	if len(body.Traces) == 0 {
		fmt.Fprintln(out, "no retained traces match")
	}
	for _, t := range body.Traces {
		line := fmt.Sprintf("%s  %-9s %-4s %9s  %3d spans  %s",
			t.TraceID, t.Outcome, t.Kind, fmtDur(t.DurationS), t.Spans,
			t.Start.Format("15:04:05.000"))
		if len(t.Flags) > 0 {
			line += "  [" + strings.Join(t.Flags, ",") + "]"
		}
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "store: %d retained, %d aged out\n", body.Stats.Len, body.Stats.Evicted)
	return nil
}

// apiError surfaces the daemon's JSON {"error": ...} body when present.
func apiError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, body.Error)
	}
	return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(raw)))
}

// ANSI palette; color() collapses to plain text when disabled.
const (
	ansiReset  = "\x1b[0m"
	ansiDim    = "\x1b[2m"
	ansiRed    = "\x1b[31m"
	ansiGreen  = "\x1b[32m"
	ansiYellow = "\x1b[33m"
)

// renderWaterfall draws the trace header and the span forest as a Gantt
// chart: every span is one row, its bar positioned on the shared trace
// time axis. Spans flagged with an error attr render red, in-progress
// spans yellow, the rest green. Each span's events (lifecycle, degrade
// and invariant breadcrumbs, notes, teed logs) are listed under its bar,
// timed from the trace start.
func renderWaterfall(out io.Writer, tr *obs.StoredTrace, width int, ansi bool) {
	color := func(code, s string) string {
		if !ansi {
			return s
		}
		return code + s + ansiReset
	}

	head := fmt.Sprintf("trace %s  %s", tr.TraceID, tr.Outcome)
	if len(tr.Flags) > 0 {
		head += "  [" + strings.Join(tr.Flags, ",") + "]"
	}
	fmt.Fprintln(out, head)
	meta := fmt.Sprintf("  kind=%s", orDash(tr.Kind))
	if tr.JobID != "" {
		meta += "  job=" + tr.JobID
	}
	meta += fmt.Sprintf("  start=%s  total=%s",
		tr.Start.Format("15:04:05.000"), fmtDur(tr.DurationS))
	if tr.DroppedSpans > 0 {
		meta += fmt.Sprintf("  (%d spans dropped by the recorder ring)", tr.DroppedSpans)
	}
	fmt.Fprintln(out, meta)

	// Time axis: from the earliest span start over the longest extent.
	// The stored duration can exceed the span extent (e.g. queue wait
	// before the recorder's first event) — take the max so bars never
	// overflow the gutter.
	t0, extent := axis(tr.Spans)
	if tr.DurationS > extent {
		extent = tr.DurationS
	}
	if extent <= 0 {
		extent = 1e-9
	}

	nameWidth := 0
	walk(tr.Spans, 0, func(n *obs.SpanNode, depth int) {
		if w := 2*depth + len(n.Name); w > nameWidth {
			nameWidth = w
		}
	})
	if nameWidth > 40 {
		nameWidth = 40
	}

	walk(tr.Spans, 0, func(n *obs.SpanNode, depth int) {
		name := strings.Repeat("  ", depth) + n.Name
		if len(name) > nameWidth {
			name = name[:nameWidth]
		}
		durS := n.DurationMS / 1e3
		start := n.Start.Sub(t0).Seconds()
		lo := int(start / extent * float64(width))
		ln := int(durS / extent * float64(width))
		if ln < 1 {
			ln = 1
		}
		if lo >= width {
			lo = width - 1
		}
		if lo+ln > width {
			ln = width - lo
		}
		bar := strings.Repeat(" ", lo) + strings.Repeat("█", ln) +
			strings.Repeat(" ", width-lo-ln)
		code := ansiGreen
		switch {
		case n.InProgress:
			code = ansiYellow
		case n.Attrs["error"] != nil:
			code = ansiRed
		}
		line := fmt.Sprintf("  %-*s ▕%s▏ %9s", nameWidth, name, color(code, bar), fmtDur(durS))
		if note := annotate(n); note != "" {
			line += "  " + color(ansiDim, note)
		}
		fmt.Fprintln(out, line)
		indent := "  " + strings.Repeat("  ", depth) + "  · "
		if n.DroppedEvents > 0 {
			fmt.Fprintln(out, color(ansiDim, fmt.Sprintf("%s(%d earlier events dropped)", indent, n.DroppedEvents)))
		}
		for _, ev := range n.Events {
			fmt.Fprintln(out, indent+eventLine(ev, t0, color))
		}
	})
}

// eventLine renders one span event as "+offset kind name detail", the
// offset from the trace's time origin and the detail truncated. Degrade
// and invariant breadcrumbs render red.
func eventLine(ev obs.FlightEvent, t0 time.Time, color func(code, s string) string) string {
	kind := ev.Kind
	if kind == obs.FlightDegrade || kind == obs.FlightInvariant {
		kind = color(ansiRed, kind)
	}
	line := fmt.Sprintf("+%-9s %s %s", fmtDur(ev.At.Sub(t0).Seconds()), kind, ev.Name)
	if d := ev.Detail; d != "" {
		if len(d) > 100 {
			d = d[:97] + "..."
		}
		line += "  " + color(ansiDim, d)
	}
	return line
}

// axis returns the earliest span start and the extent (seconds) from it
// to the latest span end across the whole forest.
func axis(spans []obs.SpanNode) (time.Time, float64) {
	var t0 time.Time
	var end time.Time
	walk(spans, 0, func(n *obs.SpanNode, _ int) {
		fin := n.Start.Add(time.Duration(n.DurationMS * float64(time.Millisecond)))
		if t0.IsZero() || n.Start.Before(t0) {
			t0 = n.Start
		}
		if fin.After(end) {
			end = fin
		}
	})
	if t0.IsZero() {
		return t0, 0
	}
	return t0, end.Sub(t0).Seconds()
}

// walk visits the span forest depth-first in document order.
func walk(spans []obs.SpanNode, depth int, f func(*obs.SpanNode, int)) {
	for i := range spans {
		f(&spans[i], depth)
		walk(spans[i].Children, depth+1, f)
	}
}

// annotate flattens a span's noteworthy attrs into "k=v" pairs, keys
// sorted, errors first, long values truncated.
func annotate(n *obs.SpanNode) string {
	if len(n.Attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if (keys[i] == "error") != (keys[j] == "error") {
			return keys[i] == "error"
		}
		return keys[i] < keys[j]
	})
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		v := fmt.Sprint(n.Attrs[k])
		if len(v) > 40 {
			v = v[:37] + "..."
		}
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, " ")
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// fmtDur renders a duration in seconds at a human scale.
func fmtDur(s float64) string {
	if s <= 0 {
		return "0s"
	}
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
