package serve_test

import (
	"context"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/serve"
)

// BenchmarkDaemonSaturation drives an in-process server to saturation
// with the mixed loadgen workload — in process, where `go run
// ./benchmark --workload serve-stream` measures the daemon over
// loopback — for profiling the request path: each b.N
// iteration is one 2-second closed-loop window and reports QPS. Run
// with -cpuprofile to see where a saturated daemon's CPU goes.
func BenchmarkDaemonSaturation(b *testing.B) {
	s := serve.New(serve.Config{
		Workers:        runtime.GOMAXPROCS(0),
		MaxInflight:    2,
		QueueDepth:     4,
		MaxQueueWait:   20 * time.Millisecond,
		PlanCacheBytes: 64 << 20,
		MaxDim:         128,
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
		defer dcancel()
		if err := s.Drain(dctx); err != nil {
			b.Fatal(err)
		}
	}()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := &serve.LoadGen{
			Client:      &serve.Client{BaseURL: ts.URL, MaxRetries: -1},
			Tenants:     4,
			Concurrency: 16,
			MaxDim:      128,
			Seed:        1,
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		sum := gen.Run(ctx)
		cancel()
		b.ReportMetric(sum.QPS(), "qps")
	}
}
