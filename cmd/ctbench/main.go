// Command ctbench regenerates every table and figure of the paper's
// evaluation section on a scaled TPC-D dataset:
//
//	ctbench -exp all -sf 0.01
//	ctbench -exp table6,fig12,table7 -sf 0.02 -queries 100
//
// Each experiment prints the same rows or series the paper reports, in both
// modelled 1998-disk time (the reproduction) and wall clock.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cubetree"

	"cubetree/internal/experiment"
	"cubetree/internal/greedy"
	"cubetree/internal/lattice"
	"cubetree/internal/pager"
	"cubetree/internal/tpcd"
)

func main() {
	var (
		exps    = flag.String("exp", "all", "comma-separated experiments: table5,table6,storage,fig12,fig13,fig14,table7,throughput,scaling,greedy,ablations or all")
		sf      = flag.Float64("sf", 0.01, "TPC-D scale factor (1.0 = the paper's 1 GB)")
		seed    = flag.Uint64("seed", 1998, "random seed")
		queries = flag.Int("queries", 100, "queries per view (Figure 12/13/14)")
		pool    = flag.Int("pool", 0, "buffer pool pages per structure (0 = auto: ~3% of data, like the paper's 32 MB vs 1 GB)")
		model   = flag.String("model", "disk-1998", "I/O cost model: disk-1998 or ssd-2020")
		dir     = flag.String("dir", "", "working directory (default: temp)")
		csvDir  = flag.String("csv", "", "also write each artifact as CSV into this directory")
		noRepl  = flag.Bool("no-replicas", false, "disable the top view's replica sort orders")
		asJSON  = flag.Bool("json", false, "write machine-readable results (throughput -> BENCH_throughput.json)")
		compare = flag.String("compare", "", "compare the throughput sweep against this BENCH_throughput.json baseline; exit 1 on regression")
		thresh  = flag.Float64("compare-threshold", experiment.DefaultTrendThreshold, "fractional QPS drop flagged as a regression by -compare")
		dbgAddr = flag.String("debug-addr", "", "serve /debug/metrics, /debug/traces, and pprof on this address while the run is live")
		slow    = flag.Duration("slow", 0, "log queries at or above this latency to the slow-query log (0 = off)")
		measure = flag.Duration("measure", time.Second, "minimum measurement window per throughput-sweep row (batch repeats to fill it; 0 = single pass)")
		workers = flag.String("workers", "1,2,4", "cluster sizes for -exp scaling, comma-separated")
	)
	flag.Parse()

	m := pager.Disk1998
	if *model == "ssd-2020" {
		m = pager.SSD2020
	}
	p := experiment.Params{
		SF:             *sf,
		Seed:           *seed,
		QueriesPerView: *queries,
		PoolPages:      *pool,
		Model:          m,
		Replicas:       !*noRepl,
		Dir:            *dir,
		MinMeasure:     *measure,
	}
	if p.PoolPages <= 0 {
		// ~3% of the top view's pages, min 8 — the paper's memory:data ratio.
		p.PoolPages = int(6001215.0 * *sf * 40 / 8192 * 0.03)
		if p.PoolPages < 8 {
			p.PoolPages = 8
		}
	}

	var o *cubetree.Observer
	if *dbgAddr != "" || *slow > 0 {
		o = cubetree.NewObserver(cubetree.ObserverOptions{SlowThreshold: *slow})
		p.Obs = o
	}
	if *dbgAddr != "" {
		srv, err := cubetree.ServeDebug(*dbgAddr, nil, o)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("debug server on http://%s/debug/metrics\n", srv.Addr())
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	need := func(name string) bool { return all || want[name] }

	if need("greedy") {
		runGreedy(*sf)
	}

	needsSetup := need("table5") || need("table6") || need("storage") ||
		need("fig12") || need("fig13") || need("table7") || need("throughput")
	var s *experiment.Setup
	if needsSetup {
		fmt.Printf("building setup: SF=%.4g (%d fact rows), pool %d pages/structure, model %s\n\n",
			*sf, tpcd.New(tpcd.Params{SF: *sf, Seed: *seed}).Facts, p.PoolPages, m.Name)
		var err error
		s, err = experiment.NewSetup(p)
		if err != nil {
			fatal(err)
		}
		defer s.Close()
		if o != nil {
			// Surface the Cubetree configuration's page I/O under the "io"
			// key of /debug/metrics.
			o.Registry.AttachStats(s.CubeStats())
		}
	}

	csv := func(name, content string) {
		if *csvDir == "" {
			return
		}
		if err := experiment.WriteCSV(*csvDir, name, content); err != nil {
			fatal(err)
		}
	}

	if need("table5") {
		tab := s.RunTable5()
		fmt.Println(tab)
		csv("table5.csv", tab.CSV())
	}
	if need("table6") {
		tab := s.RunTable6()
		fmt.Println(tab)
		csv("table6.csv", tab.CSV())
	}
	if need("storage") {
		st := s.RunStorage()
		fmt.Println(st)
		csv("storage.csv", st.CSV())
	}
	if need("fig12") || need("fig13") {
		fig, err := s.RunFig12()
		if err != nil {
			fatal(err)
		}
		if need("fig12") {
			fmt.Println(fig)
			fmt.Println(fig.Chart())
			csv("fig12.csv", fig.CSV())
		}
		if need("fig13") {
			th := experiment.RunFig13(fig)
			fmt.Println(th)
			fmt.Println(th.Chart())
			csv("fig13.csv", th.CSV())
		}
	}
	if need("throughput") {
		tp, err := s.RunThroughput(experiment.DefaultClients())
		if err != nil {
			fatal(err)
		}
		fmt.Println(tp)
		if *asJSON {
			data, err := json.MarshalIndent(tp, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile("BENCH_throughput.json", append(data, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Println("wrote BENCH_throughput.json")
		}
		if *compare != "" {
			base, err := experiment.LoadThroughput(*compare)
			if err != nil {
				fatal(err)
			}
			rep := experiment.CompareThroughput(base, tp, experiment.TrendOptions{Threshold: *thresh})
			fmt.Print(rep)
			if rep.Regressed() {
				fatal(fmt.Errorf("%d throughput regression(s) beyond %.1f%% vs %s",
					len(rep.Regressions()), 100*rep.Threshold, *compare))
			}
		}
	}
	if need("table7") {
		t7, err := s.RunTable7()
		if err != nil {
			fatal(err)
		}
		fmt.Println(t7)
		csv("table7.csv", t7.CSV())
	}
	if need("ablations") {
		ab, err := experiment.RunAblations(p)
		if err != nil {
			fatal(err)
		}
		fmt.Println(ab)
		csv("ablations.csv", ab.CSV())
	}
	if need("scaling") {
		ws, err := parseWorkers(*workers)
		if err != nil {
			fatal(err)
		}
		sc, err := experiment.RunScaling(experiment.ScalingParams{
			SF:             *sf,
			Seed:           *seed,
			QueriesPerView: *queries,
			PoolPages:      *pool,
			Workers:        ws,
			MinMeasure:     *measure,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(sc)
		if *asJSON {
			data, err := json.MarshalIndent(sc, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile("BENCH_scaling.json", append(data, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Println("wrote BENCH_scaling.json")
		}
	}
	if need("fig14") {
		fig, err := experiment.RunFig14(p)
		if err != nil {
			fatal(err)
		}
		fmt.Println(fig)
		fmt.Println(fig.Chart())
		csv("fig14.csv", fig.CSV())
	}
}

// runGreedy prints the 1-greedy selection trace on paper-scale sizes,
// mirroring the selection quoted in Section 3.
func runGreedy(sf float64) {
	ds := tpcd.New(tpcd.Params{SF: sf})
	dims := []lattice.Attr{tpcd.AttrPart, tpcd.AttrSupplier, tpcd.AttrCustomer}
	lat, err := lattice.New(dims, ds.Domains())
	if err != nil {
		fatal(err)
	}
	// Exact sizes would need a counting pass; Yao estimates plus the
	// PARTSUPP correlation match the generator closely.
	sizes := map[string]int64{
		lattice.CanonKey([]lattice.Attr{tpcd.AttrPart, tpcd.AttrSupplier}): 4 * ds.Parts,
	}
	sel := greedy.Select(lat, ds.Facts, sizes, 9)
	fmt.Println("1-greedy view and index selection (GHRU97), 9 steps:")
	for i, step := range sel.Trace {
		fmt.Printf("  %d. %-34s benefit %14.0f  benefit/space %10.2f\n",
			i+1, step.Pick.String(), step.Benefit, step.PerSpace)
	}
	fmt.Println()
}

// parseWorkers parses the -workers axis ("1,2,4") into cluster sizes.
func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(part, "%d", &n); err != nil || n < 1 {
			return nil, fmt.Errorf("bad -workers entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-workers lists no cluster sizes")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ctbench:", err)
	os.Exit(1)
}
