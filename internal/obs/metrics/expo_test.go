package metrics

import (
	"sort"
	"strconv"
	"strings"
	"testing"
)

// expoFamily is one parsed exposition family.
type expoFamily struct {
	name, kind string
	samples    []expoSample
}

type expoSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseExposition is a strict parser for the text exposition format: it
// requires HELP immediately followed by TYPE, samples grouped under
// their family, family blocks sorted by name, and label values that
// round-trip through strconv.Unquote.
func parseExposition(t *testing.T, text string) []expoFamily {
	t.Helper()
	var fams []expoFamily
	var cur *expoFamily
	sawHelp := ""
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				t.Fatalf("line %d: malformed HELP %q", ln+1, line)
			}
			sawHelp = name
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE %q", ln+1, line)
			}
			if sawHelp != fields[0] {
				t.Fatalf("line %d: TYPE %s not preceded by its HELP (saw %q)", ln+1, fields[0], sawHelp)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown TYPE %q", ln+1, fields[1])
			}
			fams = append(fams, expoFamily{name: fields[0], kind: fields[1]})
			cur = &fams[len(fams)-1]
			sawHelp = ""
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		default:
			if cur == nil {
				t.Fatalf("line %d: sample %q before any TYPE", ln+1, line)
			}
			s := parseSampleLine(t, ln+1, line)
			base := s.name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if cur.kind == "histogram" && strings.HasSuffix(base, suf) {
					base = strings.TrimSuffix(base, suf)
					break
				}
			}
			if base != cur.name {
				t.Fatalf("line %d: sample %q under family %q", ln+1, s.name, cur.name)
			}
			cur.samples = append(cur.samples, s)
		}
	}
	if !sort.SliceIsSorted(fams, func(i, j int) bool { return fams[i].name < fams[j].name }) {
		t.Fatal("families not sorted by name")
	}
	return fams
}

func parseSampleLine(t *testing.T, ln int, line string) expoSample {
	t.Helper()
	name := line
	labels := map[string]string{}
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		j := strings.LastIndexByte(line, '}')
		if j < i {
			t.Fatalf("line %d: unbalanced braces %q", ln, line)
		}
		for _, pair := range splitLabelPairs(t, ln, line[i+1:j]) {
			k, quoted, ok := strings.Cut(pair, "=")
			if !ok {
				t.Fatalf("line %d: malformed label %q", ln, pair)
			}
			v, err := strconv.Unquote(quoted)
			if err != nil {
				t.Fatalf("line %d: label value %s does not unquote: %v", ln, quoted, err)
			}
			labels[k] = v
		}
		line = line[j+1:]
	} else {
		k := strings.IndexByte(line, ' ')
		if k < 0 {
			t.Fatalf("line %d: no value in %q", ln, line)
		}
		name = line[:k]
		line = line[k:]
	}
	valStr := strings.TrimSpace(line)
	var v float64
	var err error
	if valStr == "+Inf" {
		t.Fatalf("line %d: +Inf sample value", ln)
	} else if v, err = strconv.ParseFloat(valStr, 64); err != nil {
		t.Fatalf("line %d: value %q: %v", ln, valStr, err)
	}
	return expoSample{name: name, labels: labels, value: v}
}

// splitLabelPairs splits k="v" pairs on commas outside quotes.
func splitLabelPairs(t *testing.T, ln int, s string) []string {
	t.Helper()
	var out []string
	start, inQ, esc := 0, false, false
	for i := 0; i < len(s); i++ {
		switch {
		case esc:
			esc = false
		case s[i] == '\\':
			esc = true
		case s[i] == '"':
			inQ = !inQ
		case s[i] == ',' && !inQ:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if inQ {
		t.Fatalf("line %d: unterminated quote in labels %q", ln, s)
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func TestExpositionStrictConformance(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("z_ops_total", "ops so far")
	c.Add(5)
	g := r.Gauge("a_depth", "queue depth")
	g.Set(3)
	h := r.Histogram("m_wait_seconds", "waits", []float64{0.001, 0.1, 10})
	for _, v := range []float64{0.0001, 0.05, 0.05, 5, 100} {
		h.Observe(v)
	}
	v := r.CounterVec("l_events_total", "labeled events", "reason", "stage")
	v.WithLabelValues(`odd"value\with`+"\nnewline", "s1").Inc()
	v.WithLabelValues("plain", "s2").Add(2)
	r.Info("t_build_info", "identity", map[string]string{"version": "v9", "go_version": "go1.x"})

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	fams := parseExposition(t, text)
	byName := map[string]expoFamily{}
	for _, f := range fams {
		byName[f.name] = f
	}
	if len(fams) != 5 {
		t.Fatalf("got %d families, want 5:\n%s", len(fams), text)
	}

	// Escaped label value round-trips exactly.
	le := byName["l_events_total"]
	found := false
	for _, s := range le.samples {
		if s.labels["reason"] == `odd"value\with`+"\nnewline" && s.labels["stage"] == "s1" && s.value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("escaped label series missing:\n%s", text)
	}

	// Histogram buckets: cumulative, ending at +Inf == count.
	hf := byName["m_wait_seconds"]
	var buckets []expoSample
	var count, sum float64
	for _, s := range hf.samples {
		switch s.name {
		case "m_wait_seconds_bucket":
			buckets = append(buckets, s)
		case "m_wait_seconds_count":
			count = s.value
		case "m_wait_seconds_sum":
			sum = s.value
		}
	}
	if len(buckets) != 4 {
		t.Fatalf("got %d buckets, want 4 (3 bounds + +Inf)", len(buckets))
	}
	prev := -1.0
	for _, b := range buckets {
		if b.value < prev {
			t.Fatalf("buckets not cumulative: %v after %v", b.value, prev)
		}
		prev = b.value
	}
	if last := buckets[len(buckets)-1]; last.labels["le"] != "+Inf" || last.value != count {
		t.Fatalf("+Inf bucket = %v (le=%q), want count %v", last.value, last.labels["le"], count)
	}
	if count != 5 || sum != 105.1001 {
		t.Fatalf("count=%v sum=%v, want 5, 105.1001", count, sum)
	}

	// Info series.
	info := byName["t_build_info"].samples
	if len(info) != 1 || info[0].value != 1 || info[0].labels["version"] != "v9" {
		t.Fatalf("t_build_info samples = %+v", info)
	}

	// Plain integer formatting (no exponent for small ints).
	if !strings.Contains(text, "z_ops_total 5\n") || !strings.Contains(text, "a_depth 3\n") {
		t.Fatalf("integer samples not plainly formatted:\n%s", text)
	}
}

func TestRuntimeMetricsExposed(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r, "")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams := parseExposition(t, sb.String())
	byName := map[string]expoFamily{}
	for _, f := range fams {
		byName[f.name] = f
	}
	for _, want := range []string{
		"go_goroutines", "go_memstats_heap_alloc_bytes", "go_memstats_heap_objects",
		"go_gc_pause_seconds_total", "go_gc_cycles_total", "process_uptime_seconds",
		"capman_build_info",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("runtime family %q missing", want)
		}
	}
	if g := byName["go_goroutines"].samples; len(g) != 1 || g[0].value < 1 {
		t.Errorf("go_goroutines = %+v, want >= 1", g)
	}
	info := byName["capman_build_info"].samples
	if len(info) != 1 || info[0].value != 1 || info[0].labels["version"] != "dev" {
		t.Errorf("capman_build_info = %+v, want version=dev value 1", info)
	}
	// Every runtime name passes the lint rules.
	for _, f := range fams {
		if err := CheckName(f.kind, f.name); err != nil {
			t.Errorf("runtime metric fails naming rules: %v", err)
		}
	}
}
