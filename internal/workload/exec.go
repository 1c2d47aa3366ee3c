package workload

import (
	"context"
	"sync"

	"cubetree/internal/obs"
)

// ExecuteBatch runs qs through exec with up to parallelism concurrent
// workers and returns one result slice per query, in query order.
// parallelism < 1 or a single-query batch degenerates to the serial loop, so
// serial and parallel execution share one code path and must agree by
// construction. exec must be safe for concurrent calls; every engine is
// (its state is read-only pages behind the sharded buffer pool).
//
// Queries not yet started when ctx is done are never dispatched, and exec
// receives a context it should honour so in-flight scans are abandoned. The
// first failing query stops the batch the same way: nothing more is
// dispatched, the queries still running are cancelled, and that query's
// error is returned once they finish. The caller's own ctx error takes
// precedence. Results of failed or unstarted queries are nil.
//
// o, when non-nil, counts the call in query_batches_total and tracks the
// queries currently executing in query_inflight.
func ExecuteBatch(ctx context.Context, exec func(context.Context, Query) ([]Row, error), qs []Query, parallelism int, o *obs.Observer) ([][]Row, error) {
	var inflight *obs.Gauge
	if o != nil {
		o.Batches.Inc()
		inflight = o.Inflight
	}
	results := make([][]Row, len(qs))
	run := func(ctx context.Context, i int) error {
		inflight.Add(1)
		defer inflight.Add(-1)
		rows, err := exec(ctx, qs[i])
		if err == nil {
			results[i] = rows
		}
		return err
	}
	if parallelism > len(qs) {
		parallelism = len(qs)
	}
	if parallelism <= 1 {
		for i := range qs {
			if err := ctx.Err(); err != nil {
				return results, err
			}
			if err := run(ctx, i); err != nil {
				return results, err
			}
		}
		return results, nil
	}

	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	next := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := run(bctx, i); err != nil {
					errOnce.Do(func() { firstErr = err; cancel() })
				}
			}
		}()
	}
dispatch:
	for i := range qs {
		// Checked before the select too: once bctx is done, a select with a
		// ready worker would still pick the send half the time.
		if bctx.Err() != nil {
			break
		}
		select {
		case next <- i:
		case <-bctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, firstErr
}
