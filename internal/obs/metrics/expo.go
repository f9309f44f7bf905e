package metrics

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// ContentType is the Content-Type of WritePrometheus output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in the Prometheus text
// exposition format: families sorted by name, one # HELP and # TYPE pair
// per family, histogram series expanded into cumulative le-labeled
// buckets (ending in +Inf) plus _sum and _count. Safe on a nil registry
// (writes nothing). Function-backed families are sampled here, outside
// the registry lock.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, f := range r.families() {
		writeHeader(bw, f)
		if f.value != nil {
			writeSample(bw, f.name, "", nil, nil, f.value())
			continue
		}
		for _, s := range f.snapshotSeries() {
			if v, h := s.read(); h != nil {
				writeHistogram(bw, f, s.labelValues, h)
			} else {
				writeSample(bw, f.name, "", f.labels, s.labelValues, v)
			}
		}
	}
	return bw.Flush()
}

func writeHeader(w *bufio.Writer, f *family) {
	w.WriteString("# HELP ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(escapeHelp(f.help))
	w.WriteByte('\n')
	w.WriteString("# TYPE ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(f.kind)
	w.WriteByte('\n')
}

// writeHistogram emits one histogram series: its cumulative buckets,
// then _sum and _count.
func writeHistogram(w *bufio.Writer, f *family, values []string, h *Histogram) {
	snap := h.Snapshot()
	cum := snap.Cumulative()
	for i, b := range snap.Bounds {
		writeBucket(w, f.name, f.labels, values, formatValue(b), cum[i])
	}
	writeBucket(w, f.name, f.labels, values, "+Inf", snap.Count)
	writeSample(w, f.name, "_sum", f.labels, values, snap.Sum)
	writeSample(w, f.name, "_count", f.labels, values, float64(snap.Count))
}

// writeSample emits `name[suffix]{labels...} value`.
func writeSample(w *bufio.Writer, name, suffix string, labels, values []string, v float64) {
	w.WriteString(name)
	w.WriteString(suffix)
	writeLabels(w, labels, values, "", "")
	w.WriteByte(' ')
	w.WriteString(formatValue(v))
	w.WriteByte('\n')
}

// writeBucket emits one cumulative histogram bucket with its le label.
func writeBucket(w *bufio.Writer, name string, labels, values []string, le string, count uint64) {
	w.WriteString(name)
	w.WriteString("_bucket")
	writeLabels(w, labels, values, "le", le)
	w.WriteByte(' ')
	w.WriteString(strconv.FormatUint(count, 10))
	w.WriteByte('\n')
}

// writeLabels renders {k="v",...}, appending an extra pair when
// extraKey != "". Nothing is written for an unlabeled sample.
func writeLabels(w *bufio.Writer, labels, values []string, extraKey, extraVal string) {
	if len(labels) == 0 && extraKey == "" {
		return
	}
	w.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(l)
		w.WriteString(`="`)
		w.WriteString(escapeLabel(values[i]))
		w.WriteByte('"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			w.WriteByte(',')
		}
		w.WriteString(extraKey)
		w.WriteString(`="`)
		w.WriteString(escapeLabel(extraVal))
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

// formatValue renders a float the way %g does, matching the output of
// the previous hand-rolled writer (integers stay bare: 5, not 5e+00).
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline. The result round-trips through
// strconv.Unquote, which the strict parser test relies on.
func escapeLabel(v string) string { return labelEscaper.Replace(v) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// escapeHelp escapes a HELP string (backslash and newline only).
func escapeHelp(v string) string { return helpEscaper.Replace(v) }
