// Command bench is the repository's benchmark: five workloads from a
// library call to a 2-worker cluster, gated end-to-end metrics, a per-layer
// ledger and a traced run. See README.md.
//
//	go run . -workload slice_hot -seed 1998 -seconds 10 -trace 0   # one run, JSON result on the last line
//	go run .                                                      # all five workloads, both kinds of run, as tables
//	go run . -selfcheck                                           # the untraced suite twice, compared against the bounds
//	go run . -quick                                               # small data, short windows
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload and print its JSON result: "+workloadNames())
		seed      = flag.Uint64("seed", defaultSeed, "seed of the fact stream and every request list")
		seconds   = flag.Float64("seconds", 0, "measuring window in seconds (default 10, or 2 with -quick)")
		trace     = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		quick     = flag.Bool("quick", false, "SF 0.02, short lists and 2 s windows")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced suite twice and fail if any end-to-end metric differs by more than its bound")
		cubetreed = flag.String("cubetreed", "", "path of a built cubetreed binary (default: build one into the run's temp dir)")
		traceOut  = flag.String("trace-out", "", "with -workload and -trace 1: where to write the span file (default: the temp dir)")
		describe  = flag.Bool("describe", false, "print the declared contract (the content of BENCHMARK.json) and exit")
	)
	flag.Float64Var(seconds, "window", 0, "alias of -seconds")
	flag.Parse()
	if *describe {
		fmt.Println(string(contractJSON()))
		return
	}
	sc := fullScale
	if *quick {
		sc = quickScale
	}
	if *seconds <= 0 {
		*seconds = sc.seconds
	}

	rd, err := newRunDir(*cubetreed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	code := 0
	switch {
	case *workload != "":
		code = runOne(rd, sc, *workload, *seed, *seconds, *trace != 0, *traceOut)
	case *selfcheck:
		code = runSelfcheck(rd, sc, *seed, *seconds)
	default:
		code = runAll(rd, sc, *seed, *seconds)
	}
	rd.cleanup()
	os.Exit(code)
}

func workloadNames() string {
	var names []string
	for _, sp := range specs {
		names = append(names, sp.name)
	}
	return strings.Join(names, ", ")
}

// metricJSON is one reported value.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the driver's result line.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// declared picks the metric set a run reports.
func declared(traced bool) []metricDecl {
	if traced {
		return perLayer
	}
	return endToEnd
}

// runOne runs a single workload the way the driver asks for it and prints
// the result object as the last line of standard output. Everything else
// goes to standard error.
func runOne(rd *runDir, sc scale, name string, seed uint64, seconds float64, traced bool, traceOut string) int {
	sp, ok := specByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", name, workloadNames())
		return 2
	}
	res, err := runWorkload(rd, sp, sc, seed, seconds, traced, traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	printTable(os.Stderr, res)
	out := resultJSON{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricJSON{}}
	for _, d := range declared(traced) {
		out.Metrics[d.name] = metricJSON{res.metrics[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.correct() {
		return 1
	}
	return 0
}

// printTable writes one run's metrics by name with their units.
func printTable(w *os.File, res *result) {
	kind := "end-to-end (untraced)"
	if res.traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n== %s: %s  input_digest=%s GOMAXPROCS=%d\n", res.workload, kind, res.digest, runtime.GOMAXPROCS(0))
	for _, d := range declared(res.traced) {
		note := ""
		if d.name == "query_p99_ms" {
			note = fmt.Sprintf("  (%d samples)", res.p99Samples)
		}
		fmt.Fprintf(w, "  %-38s %16.6g %-8s%s\n", d.name, res.metrics[d.name], d.unit, note)
	}
	fmt.Fprintf(w, "  %-38s %16.6g %-8s  (%d failed of %d attempted)\n", "failed_share",
		ratio(float64(res.failed), float64(res.attempted)), "ratio", res.failed, res.attempted)
	if res.traceFile != "" {
		fmt.Fprintf(w, "  trace: %d spans written to %s\n", res.spans, res.traceFile)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// runAll is the one command: every workload, untraced then traced.
func runAll(rd *runDir, sc scale, seed uint64, seconds float64) int {
	code := 0
	qps := map[string]float64{}
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(rd, sp, sc, seed, seconds, traced, "")
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
				return 1
			}
			printTable(os.Stdout, res)
			if !res.correct() {
				code = 1
			}
			if !traced {
				qps[sp.name] = res.metrics["qps"]
			}
		}
	}
	// The layering's sanity: each front door costs throughput.
	if !(qps["slice_hot"] > qps["serve_http"] && qps["serve_http"] > qps["serve_cluster"]) {
		fmt.Printf("\nPROBLEM: qps does not order slice_hot > serve_http > serve_cluster: %.0f, %.0f, %.0f\n",
			qps["slice_hot"], qps["serve_http"], qps["serve_cluster"])
		code = 1
	}
	return code
}

// runSelfcheck runs the untraced suite twice and compares every end-to-end
// metric of every workload against its bound, printing the spread table the
// bounds were set from.
func runSelfcheck(rd *runDir, sc scale, seed uint64, seconds float64) int {
	code := 0
	var runs [2]map[string]*result
	for k := range runs {
		runs[k] = map[string]*result{}
		for _, sp := range specs {
			res, err := runWorkload(rd, sp, sc, seed, seconds, false, "")
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
				return 1
			}
			if !res.correct() {
				printTable(os.Stdout, res)
				code = 1
			}
			runs[k][sp.name] = res
		}
	}
	fmt.Printf("\n%-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "spread", "bound")
	for _, sp := range specs {
		for _, d := range endToEnd {
			a, b := runs[0][sp.name].metrics[d.name], runs[1][sp.name].metrics[d.name]
			spread := ratio(max(a, b)-min(a, b), (a+b)/2)
			verdict := ""
			if spread > d.bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", sp.name, d.name, a, b, 100*spread, 100*d.bound, verdict)
		}
	}
	return code
}

// contractJSON renders the declared workloads and metrics in the shape of
// BENCHMARK.json; bench_test.go holds the checked-in file to it.
func contractJSON() []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	c := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: int(fullScale.seconds)}
	for _, sp := range specs {
		c.Workloads = append(c.Workloads, workloadJSON{sp.name, sp.why})
	}
	for _, d := range endToEnd {
		c.EndToEnd = append(c.EndToEnd, e2eJSON{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, layerJSON{d.name, d.unit, d.better})
	}
	out, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return out
}
