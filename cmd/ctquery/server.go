package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"cubetree/internal/lattice"
	"cubetree/internal/server"
	"cubetree/internal/workload"
)

// serverOpts routes ctquery over HTTP to a running cubetreed instead of
// opening the warehouse directory in-process.
type serverOpts struct {
	base    string
	sql     string
	node    string
	fix     string
	limit   int
	profile bool
	jsonOut bool
	trace   string
}

func runServerMode(o serverOpts) {
	c := &server.Client{Base: strings.TrimRight(o.base, "/")}
	sql := o.sql
	if sql == "" {
		q, err := queryFromFlags(o.node, o.fix)
		if err != nil {
			fatal(err)
		}
		sql = server.SQLFor(q)
	}
	start := time.Now()
	resp, err := c.Query(context.Background(), sql, server.QueryOpts{Profile: o.profile, TraceID: o.trace})
	if err != nil {
		fatal(err)
	}
	if o.jsonOut {
		// Compact, as the server sent it, so scripts can grep the envelope.
		raw, err := json.Marshal(resp)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(raw))
		return
	}
	res := &resp.Results[0]
	printTable(res.Headers, res.Rows, o.limit)
	cached := ""
	if res.Cached {
		cached = ", cached"
	}
	trace := ""
	if resp.TraceID != "" {
		trace = ", trace " + resp.TraceID
	}
	fmt.Printf("(%d rows in %v via %s%s%s)\n",
		len(res.Rows), time.Since(start).Round(time.Microsecond), c.Base, cached, trace)
	printProfile(res.Profile)
}

// queryFromFlags builds the slice query the -node/-fix flags describe.
func queryFromFlags(node, fix string) (workload.Query, error) {
	var q workload.Query
	if node != "" {
		for _, a := range strings.Split(node, ",") {
			q.Node = append(q.Node, lattice.Attr(strings.TrimSpace(a)))
		}
	}
	if fix != "" {
		for _, pred := range strings.Split(fix, ",") {
			parts := strings.SplitN(pred, "=", 2)
			if len(parts) != 2 {
				return q, fmt.Errorf("bad predicate %q (want attr=value)", pred)
			}
			v, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
			if err != nil {
				return q, fmt.Errorf("bad predicate value in %q: %v", pred, err)
			}
			q.Fixed = append(q.Fixed, workload.Pred{
				Attr:  lattice.Attr(strings.TrimSpace(parts[0])),
				Value: v,
			})
		}
	}
	return q, nil
}
