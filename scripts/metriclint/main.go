// Command metriclint statically enforces the repository's metric naming
// rules on every registration site: names are snake_case, counters end in
// _total, histograms end in a unit suffix (_seconds, _bytes, ...), gauges
// must not claim _total, and Info families end in _info. The rules are
// the ones internal/obs/metrics.CheckName applies at runtime; linting the
// source catches a bad name before anything has to panic.
//
// Usage (from the repo root, as scripts/check.sh does):
//
//	go run ./scripts/metriclint
//
// It walks the module tree for non-test .go files, finds calls to the
// registry constructor methods (Counter, GaugeVec, Histogram, ...)
// whose first argument is a string literal, and validates that literal.
// Dynamically-built names can't be checked here; those stay covered by
// the registry's own registration-time validation.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/obs/metrics"
)

// methodKind maps every *metrics.Registry method that registers a family
// to the instrument kind CheckName expects (a test holds it to the
// registry's method set). Info's name collides with slog's Info, so its
// call shape is checked too.
var methodKind = map[string]string{
	"Counter":         metrics.KindCounter,
	"CounterVec":      metrics.KindCounter,
	"CounterFloatVec": metrics.KindCounter,
	"CounterFunc":     metrics.KindCounter,
	"Gauge":           metrics.KindGauge,
	"GaugeVec":        metrics.KindGauge,
	"GaugeFloatVec":   metrics.KindGauge,
	"GaugeFunc":       metrics.KindGauge,
	"Info":            metrics.KindGauge,
	"Histogram":       metrics.KindHistogram,
}

// requiredNames are metric families other tooling depends on by exact
// name — dashboards, the check.sh invariant smoke, EXPERIMENTS.md, and
// capbench, whose traced split reads the cache, decision, EMD and phase
// families from /metrics. The lint fails if no registration site
// declares them, so a rename or an accidental deletion is caught here
// instead of by a silent scrape gap.
var requiredNames = []string{
	"capman_invariant_violations_total",
	"capman_anomaly_total",
	"capmand_shed_total",
	"capmand_cache_hits_total",
	"capmand_cache_misses_total",
	"capman_decision_latency_seconds",
	"capman_emd_latency_seconds",
	"capman_sim_phase_seconds_total",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "metriclint:", err)
		os.Exit(1)
	}
}

func run() error {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	problems, seen, err := lint(root)
	if err != nil {
		return err
	}
	for _, name := range requiredNames {
		if !seen[name] {
			problems = append(problems,
				fmt.Sprintf("required metric family %q has no registration site", name))
		}
	}
	return report(problems)
}

// lint checks every registration site under root, returning one problem
// per bad name and the set of names registered.
func lint(root string) (problems []string, seen map[string]bool, err error) {
	seen = make(map[string]bool)
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || loggerReceiver(sel.X) {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			kind, ok := methodKind[sel.Sel.Name]
			if !ok {
				return true
			}
			info := sel.Sel.Name == "Info"
			if info {
				// Registry.Info(name, help, labels) always takes a label
				// map as its third argument; anything else (notably slog's
				// Info(msg, key, value, ...)) is not a registration.
				if len(call.Args) != 3 {
					return true
				}
				if _, isMap := call.Args[2].(*ast.CompositeLit); !isMap {
					return true
				}
			}
			seen[name] = true
			if e := metrics.CheckName(kind, name); e != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", fset.Position(lit.Pos()), e))
			} else if info && !strings.HasSuffix(name, "_info") {
				// The info pattern: a constant-1 gauge named *_info.
				problems = append(problems,
					fmt.Sprintf("%s: info metric %q: name must end in _info", fset.Position(lit.Pos()), name))
			}
			return true
		})
		return nil
	})
	return problems, seen, err
}

// loggerReceiver reports whether the receiver expression of a selector
// call is plainly a logger ("log", "logger", or a field of that name),
// whose Info/Warn methods share names with no registry constructor but
// whose message strings would otherwise confuse the Info special case.
func loggerReceiver(x ast.Expr) bool {
	var name string
	switch r := x.(type) {
	case *ast.Ident:
		name = r.Name
	case *ast.SelectorExpr:
		name = r.Sel.Name
	default:
		return false
	}
	return name == "log" || name == "logger" || name == "slog"
}

func report(problems []string) error {
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		return fmt.Errorf("%d metric naming problem(s)", len(problems))
	}
	fmt.Println("metriclint: all registered metric names conform")
	return nil
}
