package metrics

import (
	"bufio"
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// exemplarLine matches the OpenMetrics exemplar suffix this package
// emits: `name_bucket{le="..."} N # {trace_id="..."} value timestamp`.
var exemplarLine = regexp.MustCompile(
	`^[a-z0-9_]+_bucket\{le="[^"]+"\} \d+ # \{trace_id="[0-9a-f]{32}"\} [0-9.e+-]+ \d+\.\d{3}$`)

func TestExemplarExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("m_wait_seconds", "waits", []float64{0.01, 0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.SetExemplar(0.5, "0af7651916cd43dd8448eb211c80319c")
	h.Observe(50) // +Inf bucket, no exemplar

	// Off by default: the flag gates the suffix, not the observations.
	var off bytes.Buffer
	if err := r.WritePrometheus(&off); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(off.String(), "# {") {
		t.Fatalf("exemplars leaked with the writer flag off:\n%s", off.String())
	}

	r.SetExemplars(true)
	var on bytes.Buffer
	if err := r.WritePrometheus(&on); err != nil {
		t.Fatal(err)
	}
	out := on.String()
	if !strings.Contains(out, `trace_id="0af7651916cd43dd8448eb211c80319c"`) {
		t.Fatalf("exemplar trace ID missing:\n%s", out)
	}

	// Every exemplar-carrying line must parse under the OpenMetrics
	// suffix syntax, and only bucket lines may carry one.
	sc := bufio.NewScanner(&on)
	found := 0
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, " # {") {
			continue
		}
		found++
		if !exemplarLine.MatchString(line) {
			t.Errorf("malformed exemplar line: %q", line)
		}
	}
	if found == 0 {
		t.Error("no exemplar lines in exposition")
	}
}

// TestExemplarPinsToBucket: an exemplar attaches to the bucket its value
// falls in, and a later exemplar in the same bucket replaces the
// earlier one.
func TestExemplarPinsToBucket(t *testing.T) {
	r := NewRegistry()
	r.SetExemplars(true)
	h := r.Histogram("m_lat_seconds", "lat", []float64{0.01, 0.1, 1})
	for _, ex := range []struct {
		v  float64
		id string
	}{
		{0.005, strings.Repeat("a", 32)},
		{0.5, strings.Repeat("b", 32)},
		{0.6, strings.Repeat("c", 32)}, // same bucket as b: replaces it
	} {
		h.Observe(ex.v)
		h.SetExemplar(ex.v, ex.id)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wantBucket := map[string]string{
		strings.Repeat("a", 32): `le="0.01"`,
		strings.Repeat("c", 32): `le="1"`,
	}
	for id, le := range wantBucket {
		line := lineWith(out, id)
		if line == "" {
			t.Fatalf("exemplar %s missing:\n%s", id[:4], out)
		}
		if !strings.Contains(line, le) {
			t.Errorf("exemplar %s landed on %q, want %s", id[:4], line, le)
		}
	}
	if strings.Contains(out, strings.Repeat("b", 32)) {
		t.Error("replaced exemplar still exposed")
	}
}

// TestSetExemplarDoesNotObserve: SetExemplar pins a trace ID without
// changing counts — the executor calls it at trace-retention time for
// an already-observed value.
func TestSetExemplarDoesNotObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("m_x_seconds", "x", []float64{1})
	h.Observe(0.5)
	h.SetExemplar(0.5, strings.Repeat("d", 32))
	if n := h.Snapshot().Count; n != 1 {
		t.Errorf("SetExemplar changed count to %d", n)
	}
}

func lineWith(out, sub string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, sub) {
			return line
		}
	}
	return ""
}
