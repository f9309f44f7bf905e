package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs/metrics"
)

// validName is a name CheckName accepts for one kind and only that kind.
var validName = map[string]string{
	metrics.KindCounter:   "lint_probe_total",
	metrics.KindGauge:     "lint_probe_info",
	metrics.KindHistogram: "lint_probe_seconds",
}

// registering lists the exported *metrics.Registry methods that register
// a family: the ones taking (name, help string, ...).
func registering() []reflect.Method {
	str := reflect.TypeOf("")
	var out []reflect.Method
	rt := reflect.TypeOf(&metrics.Registry{})
	for i := 0; i < rt.NumMethod(); i++ {
		m := rt.Method(i)
		if m.Type.NumIn() >= 3 && m.Type.In(1) == str && m.Type.In(2) == str {
			out = append(out, m)
		}
	}
	return out
}

// register calls the registering method m on a fresh registry under
// name, giving the other arguments harmless values, and reports whether
// the registration panicked.
func register(m reflect.Method, name string) (panicked bool) {
	args := []reflect.Value{reflect.ValueOf(metrics.NewRegistry()), reflect.ValueOf(name), reflect.ValueOf("")}
	for j := 3; j < m.Type.NumIn(); j++ {
		in := m.Type.In(j)
		if in == reflect.TypeOf([]float64(nil)) {
			args = append(args, reflect.ValueOf([]float64{1}))
		} else if !m.Type.IsVariadic() || j < m.Type.NumIn()-1 {
			args = append(args, reflect.Zero(in))
		}
	}
	defer func() { panicked = recover() != nil }()
	m.Func.Call(args)
	return false
}

// TestMethodKindMatchesRegistry: every registering method is in the
// table, under the kind its registration enforces, and the table names
// no method the registry lacks — a family registered through a missing
// method would never be linted.
func TestMethodKindMatchesRegistry(t *testing.T) {
	methods := registering()
	if len(methods) == 0 {
		t.Fatal("found no registering methods on *metrics.Registry")
	}
	for _, m := range methods {
		kind, ok := methodKind[m.Name]
		if !ok {
			t.Errorf("Registry.%s registers a family but is missing from methodKind", m.Name)
			continue
		}
		for k, name := range validName {
			want := metrics.CheckName(kind, name) != nil
			if got := register(m, name); got != want {
				t.Errorf("Registry.%s(%q) panicked = %v, want %v for a %s (table kind %s)", m.Name, name, got, want, k, kind)
			}
		}
	}
	if len(methodKind) != len(methods) {
		t.Errorf("methodKind has %d entries, the registry %d registering methods", len(methodKind), len(methods))
	}
}

// TestLintReportsBadNames passes a non-snake_case name through every
// constructor in the table and expects one report per call.
func TestLintReportsBadNames(t *testing.T) {
	var src strings.Builder
	src.WriteString("package probe\n\nfunc register(r *metrics.Registry) {\n")
	for name := range methodKind {
		args := `"Bad_Name", ""`
		if name == "Info" {
			args += ", map[string]string{}"
		}
		fmt.Fprintf(&src, "\tr.%s(%s)\n", name, args)
	}
	src.WriteString("}\n")
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "probe.go"), []byte(src.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, seen, err := lint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != len(methodKind) || !seen["Bad_Name"] {
		t.Errorf("got %d problems for %d bad registrations:\n%s", len(problems), len(methodKind), strings.Join(problems, "\n"))
	}
}
