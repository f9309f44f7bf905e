package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestParseLevel(t *testing.T) {
	cases := []struct {
		in   string
		want slog.Level
	}{
		{"debug", slog.LevelDebug},
		{"Info", slog.LevelInfo},
		{"", slog.LevelInfo},
		{"WARN", slog.LevelWarn},
		{"warning", slog.LevelWarn},
		{"error", slog.LevelError},
		{" info ", slog.LevelInfo},
	}
	for _, c := range cases {
		got, err := ParseLevel(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}

func TestNewLoggerText(t *testing.T) {
	var sb strings.Builder
	l, err := NewLogger(&sb, slog.LevelInfo, FormatText)
	if err != nil {
		t.Fatal(err)
	}
	l.Info("hello", "request_id", "req-abc")
	l.Debug("hidden")
	out := sb.String()
	if !strings.Contains(out, "hello") || !strings.Contains(out, "request_id=req-abc") {
		t.Errorf("text output missing fields: %q", out)
	}
	if strings.Contains(out, "hidden") {
		t.Errorf("debug record leaked at info level: %q", out)
	}
}

func TestNewLoggerJSON(t *testing.T) {
	var sb strings.Builder
	l, err := NewLogger(&sb, slog.LevelDebug, FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("probe", "n", 3)
	var rec map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &rec); err != nil {
		t.Fatalf("json log line does not parse: %v (%q)", err, sb.String())
	}
	if rec["msg"] != "probe" || rec["n"] != float64(3) {
		t.Errorf("json record = %v", rec)
	}
}

func TestNewLoggerRejectsUnknownFormat(t *testing.T) {
	if _, err := NewLogger(&strings.Builder{}, slog.LevelInfo, "xml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestLoggerContext(t *testing.T) {
	if got := Logger(nil); got != Nop() { //nolint:staticcheck // nil ctx on purpose
		t.Error("Logger(nil) is not the nop logger")
	}
	if got := Logger(context.Background()); got != Nop() {
		t.Error("Logger(bare ctx) is not the nop logger")
	}
	var sb strings.Builder
	l, _ := NewLogger(&sb, slog.LevelInfo, FormatText)
	ctx := WithLogger(context.Background(), l)
	if Logger(ctx) != l {
		t.Error("context logger not recovered")
	}
	if WithLogger(context.Background(), nil) == nil {
		t.Error("WithLogger(nil) returned nil context")
	}
	// The nop logger must be safe and silent.
	Nop().Error("ignored", "k", "v")
}
