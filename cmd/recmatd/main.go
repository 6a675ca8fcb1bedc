// recmatd is the GEMM-serving daemon: an HTTP front end over one
// recmat engine that multiplies matrices for many concurrent tenants
// with per-request deadlines, per-tenant memory quotas, bounded-queue
// admission with load shedding, a refcounted prepacked-plan cache,
// request coalescing (queued requests sharing a plan-cache entry merge
// into one batched engine call), and graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	recmatd [-addr :8080] [-workers 0] [-max-inflight 0] [-queue 0]
//	        [-queue-wait 500ms] [-tenant-quota 268435456]
//	        [-deadline 2s] [-max-deadline 10s] [-drain 5s]
//	        [-plan-cache 536870912] [-max-dim 4096] [-max-batch 8]
//	        [-spool DIR] [-flight-interval 1m]
//	        [-slo-objective 0] [-slo-quantile 0.99]
//	        [-slo-fast 10s] [-slo-slow 1m]
//
// Endpoints:
//
//	POST /v1/gemm       one C ← α·A·B + β·C operation (JSON; see internal/serve)
//	GET  /healthz       liveness (200 while the process runs)
//	GET  /readyz        readiness (503 once draining)
//	GET  /metricz       metrics: JSON by default, OpenMetrics text under a
//	                    Prometheus Accept header or ?format=openmetrics
//	GET  /debug/flightz SLO flight recorder: state, bundles, POST to dump
//
// Fault injection for chaos drills is inherited from the library:
// RECMAT_FAULTS="panic=0.01,delay=0.02/1ms,seed=7" recmatd ...
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "engine worker count (0 = one per CPU)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently executing requests (0 = 2x workers)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 4x max-inflight)")
	queueWait := flag.Duration("queue-wait", 500*time.Millisecond, "max time a request may wait for a slot")
	tenantQuota := flag.Int64("tenant-quota", 256<<20, "per-tenant concurrent operand bytes")
	deadline := flag.Duration("deadline", 2*time.Second, "default per-request deadline")
	maxDeadline := flag.Duration("max-deadline", 10*time.Second, "cap on requested deadlines and max inflight time")
	drain := flag.Duration("drain", 5*time.Second, "graceful drain budget before cancelling in-flight work")
	planCache := flag.Int64("plan-cache", 512<<20, "prepacked plan cache bytes (negative disables)")
	maxDim := flag.Int("max-dim", 4096, "max m, k, n accepted")
	maxBatch := flag.Int("max-batch", 0, "max requests coalesced into one engine call (0 = 8, negative disables)")
	spool := flag.String("spool", "", "flight-recorder spool directory (empty disables the recorder)")
	flightInterval := flag.Duration("flight-interval", 0, "min interval between automatic flight dumps (0 = 1m)")
	sloObjective := flag.Duration("slo-objective", 0, "latency SLO: dump a flight bundle when the monitored quantile burns past this over both windows (0 disables; requires -spool)")
	sloQuantile := flag.Float64("slo-quantile", 0, "monitored latency quantile (0 = 0.99)")
	sloFast := flag.Duration("slo-fast", 0, "fast burn-rate window (0 = 10s)")
	sloSlow := flag.Duration("slo-slow", 0, "slow burn-rate window (0 = 1m)")
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)
	s := serve.New(serve.Config{
		Workers:          *workers,
		MaxInflight:      *maxInflight,
		QueueDepth:       *queue,
		MaxQueueWait:     *queueWait,
		TenantQuotaBytes: *tenantQuota,
		DefaultDeadline:  *deadline,
		MaxDeadline:      *maxDeadline,
		DrainTimeout:     *drain,
		PlanCacheBytes:   *planCache,
		MaxDim:           *maxDim,
		MaxBatch:         *maxBatch,
		Logf:             logger.Printf,

		FlightSpoolDir:    *spool,
		FlightMinInterval: *flightInterval,
		SLOObjective:      *sloObjective,
		SLOQuantile:       *sloQuantile,
		SLOFastWindow:     *sloFast,
		SLOSlowWindow:     *sloSlow,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("recmatd: listen %s: %v", *addr, err)
	}
	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	logger.Printf("recmatd: serving on %s (workers=%d)", ln.Addr(), s.Engine().Workers())

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		logger.Printf("recmatd: %v: draining", sig)
	case err := <-serveErr:
		logger.Fatalf("recmatd: serve: %v", err)
	}

	// Shutdown order: stop accepting new connections first (Shutdown
	// also waits for idle keep-alives), then drain the request floor.
	// A second signal aborts the wait.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain+*maxDeadline+10*time.Second)
	defer cancel()
	go func() {
		if sig, ok := <-sigc, true; ok {
			logger.Printf("recmatd: %v again: forcing exit", sig)
			cancel()
		}
	}()
	go hs.Shutdown(shutdownCtx)
	if err := s.Drain(shutdownCtx); err != nil {
		logger.Printf("recmatd: drain: %v", err)
		os.Exit(1)
	}
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("recmatd: http shutdown: %v", err)
	}
	fmt.Fprintln(os.Stderr, "recmatd: exit")
}
