// Command ctquery runs one slice query against a Cubetree warehouse built
// with ctload (or the cubetree package), in process or over HTTP against a
// running cubetreed:
//
//	ctquery -dir ./wh -node partkey,suppkey -fix partkey=17
//	ctquery -dir ./wh -profile -sql 'SELECT suppkey, sum(quantity) FROM sales WHERE partkey = 17 GROUP BY suppkey'
//	ctquery -server http://127.0.0.1:8347 -json -profile -node custkey
//
// Throughput is measured by the bench/ module and ctbench -exp throughput.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cubetree"

	"cubetree/internal/lattice"
	"cubetree/internal/sqlish"
)

func main() {
	var (
		dir     = flag.String("dir", "", "warehouse directory (required)")
		node    = flag.String("node", "", "comma-separated group-by attributes (empty = super-aggregate)")
		fix     = flag.String("fix", "", "comma-separated equality predicates attr=value")
		sql     = flag.String("sql", "", "run a SQL slice query instead of -node/-fix")
		explain = flag.Bool("explain", false, "print the plan instead of executing (in-process only)")
		limit   = flag.Int("limit", 20, "max result rows to print")
		srvURL  = flag.String("server", "", "query a running cubetreed at this URL over HTTP instead of opening -dir")
		profile = flag.Bool("profile", false, "print an EXPLAIN-ANALYZE execution profile for the query")
		jsonOut = flag.Bool("json", false, "server mode: print the raw JSON response envelope instead of a table")
		trace   = flag.String("trace", "", "server mode: set the outbound X-Trace-Id (empty = server mints one)")
	)
	flag.Parse()
	if *srvURL != "" {
		runServerMode(serverOpts{
			base: *srvURL, sql: *sql, node: *node, fix: *fix, limit: *limit,
			profile: *profile, jsonOut: *jsonOut, trace: *trace,
		})
		return
	}
	if *dir == "" {
		fatal(fmt.Errorf("-dir is required"))
	}

	w, err := cubetree.Open(*dir, &cubetree.Stats{})
	if err != nil {
		fatal(err)
	}
	defer w.Close()

	var st *sqlish.Statement
	var q cubetree.Query
	if *sql != "" {
		if st, err = sqlish.Parse(*sql); err != nil {
			fatal(err)
		}
		if _, err = st.Resolve(lattice.Schema(w.Schema())); err != nil {
			fatal(err)
		}
		q = st.Query
	} else if q, err = queryFromFlags(*node, *fix); err != nil {
		fatal(err)
	}
	if *explain {
		plan, err := w.Explain(q)
		if err != nil {
			fatal(err)
		}
		fmt.Println(plan)
		return
	}
	var prof *cubetree.QueryProfile
	if *profile {
		prof = &cubetree.QueryProfile{}
	}
	start := time.Now()
	rows, err := w.QueryProfiledCtx(context.Background(), q, prof)
	if err != nil {
		fatal(err)
	}
	if st != nil {
		headers, out, err := st.Format(rows, lattice.Schema(w.Schema()))
		if err != nil {
			fatal(err)
		}
		printTable(headers, out, *limit)
		fmt.Printf("(%d rows in %v)\n", len(out), time.Since(start).Round(time.Microsecond))
	} else {
		fmt.Printf("%s -> %d rows in %v\n", q, len(rows), time.Since(start).Round(time.Microsecond))
		for i, r := range rows {
			if i >= *limit {
				fmt.Printf("... %d more rows\n", len(rows)-*limit)
				break
			}
			fmt.Printf("  %v  sum=%d count=%d avg=%.2f\n", r.Group, r.Sum, r.Count, r.Avg())
		}
	}
	printProfile(prof)
}

// printTable prints formatted result rows under their headers, tab
// separated, stopping after limit rows.
func printTable(headers []string, rows [][]string, limit int) {
	fmt.Println(strings.Join(headers, "\t"))
	for i, r := range rows {
		if i >= limit {
			fmt.Printf("... %d more rows\n", len(rows)-limit)
			break
		}
		fmt.Println(strings.Join(r, "\t"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ctquery:", err)
	os.Exit(1)
}
