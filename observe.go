package recmat

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// This file is the public face of the observability layer
// (internal/obs): per-engine metrics and the Chrome-trace event
// tracer. Profiler integration needs no API — worker goroutines carry
// a pprof label ("recmat_worker") from birth, and the driver phases
// run inside runtime/trace regions visible in go tool trace.

// Metrics is a registry of cumulative counters and histograms. Every
// Engine owns one and records into it on each DGEMM/GEMMPrepacked
// call: call and error counts, per-phase latency and GFLOPS
// histograms, scheduler spawn/steal counters, buffer-pool hit rates,
// arena heap-fallback bytes, and degradation decisions. Reading is
// race-free via Snapshot; a serving process exposes it at /metricz, as
// JSON and as OpenMetrics text (internal/serve).
type Metrics = obs.Registry

// MetricsSnapshot is a point-in-time copy of a Metrics registry.
type MetricsSnapshot = obs.Snapshot

// Metrics returns the engine's metrics registry. It is live — counters
// keep moving as calls run — and safe to read concurrently with
// multiplications via its Snapshot method.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// EnableTracing starts recording an execution trace of every call on
// this engine: scheduler task and steal activity per worker, leaf
// kernel runs, pack/unpack chunks, driver phases, arena traffic, and
// degradation decisions. The trace accumulates in fixed per-worker
// ring buffers (oldest events drop on overflow — tracing never blocks
// or allocates on the hot path) and is written to w as Chrome Trace
// Event JSON by DisableTracing. Load the file at
// https://ui.perfetto.dev or chrome://tracing: one track per worker,
// plus one track per (concurrent) driver call carrying its phases.
//
// Only one tracer can be active per process; EnableTracing fails if
// this or another engine is already tracing. Calls from other engines
// in the process are recorded too (the tracer is process-global),
// folded onto this engine's worker tracks.
func (e *Engine) EnableTracing(w io.Writer) error {
	if w == nil {
		return fmt.Errorf("recmat: EnableTracing(nil)")
	}
	e.traceMu.Lock()
	defer e.traceMu.Unlock()
	if e.tracer != nil {
		return fmt.Errorf("recmat: tracing is already enabled on this engine")
	}
	t := obs.NewTracer(e.pool.Workers(), 0)
	if err := obs.Install(t); err != nil {
		return err
	}
	e.tracer, e.traceW = t, w
	return nil
}

// DisableTracing stops recording and writes the accumulated trace to
// the writer given to EnableTracing. Call it after the traced
// multiplications have returned; in-flight calls on other goroutines
// may lose events recorded during the export. It is an error if
// tracing is not enabled.
func (e *Engine) DisableTracing() error {
	e.traceMu.Lock()
	defer e.traceMu.Unlock()
	if e.tracer == nil {
		return fmt.Errorf("recmat: tracing is not enabled")
	}
	t, w := e.tracer, e.traceW
	e.tracer, e.traceW = nil, nil
	obs.Uninstall(t)
	return t.Export(w)
}
