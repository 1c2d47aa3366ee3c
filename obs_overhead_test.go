// BenchmarkObsOverhead quantifies what attaching an Observer costs the query
// path. Run with:
//
//	go test -bench=ObsOverhead -benchmem -count=5
//
// The "bare" variant is the uninstrumented path (nil observer, the default);
// "observed" attaches a full observer — metrics registry, tracer ring, and
// slow-query log with a threshold no query crosses — but no debug server, the
// configuration a production process pays for continuously. The bar is that
// "observed" stays within ~2% of "bare" wall clock; measured numbers are
// recorded in EXPERIMENTS.md.
package cubetree_test

import (
	"context"
	"testing"
	"time"

	"cubetree/internal/obs"
	"cubetree/internal/workload"

	"cubetree/internal/experiment"
)

func BenchmarkObsOverhead(b *testing.B) {
	s := concSetup(b)
	gen := workload.NewGenerator(benchQGen, s.Dataset.Domains())
	nodes := experiment.Nodes()
	var queries []workload.Query
	for i := 0; i < 8*len(nodes); i++ {
		queries = append(queries, gen.ForNode(nodes[i%len(nodes)]))
	}
	// Warm the pool so both variants run at full cache hits and the
	// comparison isolates CPU cost, not page I/O.
	for _, q := range queries {
		if _, err := s.Forest.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
	run := func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Forest.Execute(queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	// profile-off drives the profiled entry point with a nil profile: the
	// bar is allocation and wall-clock parity with the plain path, since an
	// unprofiled query must not pay for the EXPLAIN-ANALYZE machinery.
	runProfileOff := func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Forest.ExecuteProfiledCtx(ctx, queries[i%len(queries)], nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	runProfiled := func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var prof workload.QueryProfile
			if _, err := s.Forest.ExecuteProfiledCtx(ctx, queries[i%len(queries)], &prof); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("bare", func(b *testing.B) {
		s.Forest.SetObserver(nil)
		run(b)
	})
	b.Run("bare-profile-off", func(b *testing.B) {
		s.Forest.SetObserver(nil)
		runProfileOff(b)
	})
	b.Run("observed", func(b *testing.B) {
		s.Forest.SetObserver(obs.New(obs.Options{SlowThreshold: time.Second}))
		run(b)
	})
	b.Run("observed-profile-off", func(b *testing.B) {
		s.Forest.SetObserver(obs.New(obs.Options{SlowThreshold: time.Second}))
		runProfileOff(b)
	})
	b.Run("observed-profiled", func(b *testing.B) {
		s.Forest.SetObserver(obs.New(obs.Options{SlowThreshold: time.Second}))
		runProfiled(b)
	})
	// Full self-monitoring: runtime collector registered, history scraper
	// running at the production cadence, SLO tracker attached. All of that
	// work happens on the scraper goroutine at snapshot time, so the bar is
	// the same as plain "observed" — identical allocs/op on the query path.
	b.Run("observed-monitored", func(b *testing.B) {
		o := obs.New(obs.Options{SlowThreshold: time.Second})
		obs.EnableRuntimeMetrics(o.Registry)
		h := o.StartHistory(obs.HistoryOptions{Interval: obs.DefaultScrapeInterval})
		defer h.Close()
		o.SetSLOs(nil)
		s.Forest.SetObserver(o)
		run(b)
	})
	s.Forest.SetObserver(nil)
}
