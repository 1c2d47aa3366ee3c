// Command cttrend diffs two bench baselines written by ctbench -json:
//
//	cttrend BENCH_throughput.json new/BENCH_throughput.json
//	cttrend BENCH_scaling.json new/BENCH_scaling.json
//	cttrend -threshold 0.05 -json base.json cur.json
//
// The artifact kind is sniffed from the rows: a workers axis means a
// scaling sweep (QPS and per-shard refresh window per cluster size),
// anything else a throughput sweep (both engines' QPS per client count).
// Baselines recorded by older builds load fine: fields since retired (such
// as pack_format) are ignored and missing ones take their documented defaults.
// A drop beyond the threshold (default 10%) is a regression.
//
// Exit status: 0 when no regression, 1 when a regression is flagged (0 with
// -warn-only), 2 on usage or input errors — so CI can gate merges on it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"cubetree/internal/experiment"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cttrend", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", experiment.DefaultTrendThreshold,
		"fractional QPS drop flagged as a regression")
	warnOnly := fs.Bool("warn-only", false,
		"report regressions but exit 0 (PR-branch mode for the CI gate)")
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of a table")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: cttrend [flags] <baseline.json> <current.json>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	baseKind, err := experiment.BenchKind(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "cttrend:", err)
		return 2
	}
	curKind, err := experiment.BenchKind(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "cttrend:", err)
		return 2
	}
	if baseKind != curKind {
		fmt.Fprintf(stderr, "cttrend: cannot compare a %s sweep against a %s sweep\n", curKind, baseKind)
		return 2
	}

	opts := experiment.TrendOptions{Threshold: *threshold}
	var rep experiment.TrendReport
	if baseKind == "scaling" {
		rep, err = compare(experiment.LoadScaling, experiment.CompareScaling, fs.Arg(0), fs.Arg(1), opts)
	} else {
		rep, err = compare(experiment.LoadThroughput, experiment.CompareThroughput, fs.Arg(0), fs.Arg(1), opts)
	}
	if err != nil {
		fmt.Fprintln(stderr, "cttrend:", err)
		return 2
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "cttrend:", err)
			return 2
		}
	} else {
		fmt.Fprint(stdout, rep)
	}
	if regressions := len(rep.Regressions()); regressions > 0 {
		if *warnOnly {
			fmt.Fprintf(stderr, "cttrend: %d regression(s) beyond %.1f%% (warn-only)\n",
				regressions, 100**threshold)
			return 0
		}
		fmt.Fprintf(stderr, "cttrend: %d regression(s) beyond %.1f%%\n",
			regressions, 100**threshold)
		return 1
	}
	return 0
}

// compare loads both files as one artifact kind and diffs them.
func compare[T any](load func(string) (T, error), diff func(base, cur T, opts experiment.TrendOptions) experiment.TrendReport,
	basePath, curPath string, opts experiment.TrendOptions) (experiment.TrendReport, error) {
	base, err := load(basePath)
	if err != nil {
		return experiment.TrendReport{}, err
	}
	cur, err := load(curPath)
	if err != nil {
		return experiment.TrendReport{}, err
	}
	return diff(base, cur, opts), nil
}
