// Command capman-bench regenerates the paper's tables and figures from the
// simulation substrate. With no flags it runs the full suite at paper scale
// (2500 mAh cells); -quick shrinks capacities for a fast pass; -run selects
// a single experiment.
//
// Usage:
//
//	capman-bench [-quick] [-seed N] [-run Fig12] [-ext] [-format text|md] [-list]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "capman-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("capman-bench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "shrink batteries and sweeps for a fast pass")
	seed := fs.Int64("seed", 42, "workload seed")
	one := fs.String("run", "", "run a single experiment by ID (e.g. Fig12)")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	ext := fs.Bool("ext", false, "run the extension studies (ablations, pair study) instead of the paper suite")
	format := fs.String("format", "text", "output format: text|md")
	if err := fs.Parse(args); err != nil {
		return err
	}
	formats := map[string]experiments.Format{"text": experiments.Text, "md": experiments.Markdown}
	f, ok := formats[*format]
	if !ok {
		return fmt.Errorf("unknown format %q", *format)
	}
	if *list {
		for _, r := range experiments.Suite() {
			fmt.Printf("%-11s %s\n", r.ID, r.Desc)
		}
		for _, r := range experiments.Extensions() {
			fmt.Printf("%-11s %s (extension)\n", r.ID, r.Desc)
		}
		return nil
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed}
	if *one != "" {
		return experiments.RunOne(*one, opts, f, os.Stdout)
	}
	if *ext {
		return experiments.RunExtensions(opts, f, os.Stdout)
	}
	return experiments.RunAll(opts, f, os.Stdout)
}
