package core

import (
	"context"
	"fmt"
	rtrace "runtime/trace"
	"time"

	"repro/internal/obs"
)

// This file is the driver's side of the observability contract: phase
// spans on the per-call tracer lane, runtime/trace regions for go tool
// trace, per-call scheduler-delta stats, and the cross-call metrics the
// registry aggregates. Everything here follows the package obs overhead
// discipline — with no tracer installed and no registry configured,
// these helpers reduce to a nil check and a couple of clock reads that
// the driver was already paying for its Stats timers.

// The whole-call gemm span carries the resolved algorithm (offset by
// one so a failed call's zero arg stays "no metadata"), above it the
// fast levels it ran and the cutoff they ran to (24 bits), and above
// those the operand segments its blocks packed themselves; the formatter
// turns the arg back into "winograd cutoff=32 levels=1 deferred=64" in
// the Chrome export.
func init() {
	obs.SetArgFormatter(obs.KindGEMM, func(v int64) string {
		name := Alg(v&0x1ff - 1).String()
		if cutoff := v >> 16 & 0xffffff; cutoff > 0 {
			name = fmt.Sprintf("%s cutoff=%d levels=%d", name, cutoff, v>>9&0x7f)
		}
		if deferred := v >> 40; deferred > 0 {
			name = fmt.Sprintf("%s deferred=%d", name, deferred)
		}
		return name
	})
}

// gemmSpanArg encodes what a finished call actually ran for its trace
// span; zero (suppressed) when the call failed before an algorithm was
// resolved.
func gemmSpanArg(stats *Stats) int64 {
	if stats == nil {
		return 0
	}
	return int64(stats.Alg) + 1 | int64(stats.FastLevels)<<9 | int64(min(stats.FastCutoff, 0xffffff))<<16 | int64(stats.PackDeferred)<<40
}

// phase wraps one driver phase (convert-in, compute, convert-out) in a
// runtime/trace region and, when the call captured a tracer at entry, a
// span on the call's lane. It is the run's root or a lone runner that
// calls it, on its worker; a cancelled phase returns like any other and
// leaves a well-formed trace.
func (e *exec) phase(ctx context.Context, k obs.Kind, name string, f func()) {
	if e.shared {
		f()
		return
	}
	defer rtrace.StartRegion(ctx, name).End()
	if e.tr == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	e.tr.LaneSpan(e.lane, k, t0, time.Since(t0), 0)
}

// finishStats fills the per-call scheduler fields of Stats from the
// pool-counter deltas since enter. The counters are pool-global, so
// under concurrent callers the deltas apportion approximately (each
// call sees some of its neighbors' traffic); they are clamped at zero,
// and Utilization — busy worker-nanoseconds over workers × wall — is
// clamped into [0, 1].
func (cl *call) finishStats(s *Stats) {
	c0, c1 := cl.sched, cl.pool.Stats()
	s.Spawns = max(0, c1.Spawns-c0.Spawns)
	s.Steals = max(0, c1.Steals-c0.Steals)
	s.Inline = max(0, c1.Inline-c0.Inline)
	s.Parks = max(0, c1.Parks-c0.Parks)
	s.Wakes = max(0, c1.Wakes-c0.Wakes)
	wall := time.Since(cl.t0).Nanoseconds()
	if w := cl.pool.Workers(); w > 0 && wall > 0 {
		u := float64(cl.pool.BusyNanos()-cl.busy) / (float64(w) * float64(wall))
		s.Utilization = max(0, min(u, 1))
	}
}

// Metric names recorded per driver call when Options.Metrics is set.
// Counters are cumulative across calls; histograms use the package obs
// preset bucket bounds.
const (
	metricGEMMCalls          = "gemm_calls"
	metricGEMMErrors         = "gemm_errors"
	metricDegradations       = "degradations"
	metricPoolHits           = "pool_hits"
	metricPoolMisses         = "pool_misses"
	metricPackReused         = "pack_reused"
	metricPackDeferred       = "pack_deferred"
	metricConvertBytes       = "convert_bytes"
	metricArenaFallbackBytes = "arena_fallback_bytes"
	metricSchedSpawns        = "sched_spawns"
	metricSchedSteals        = "sched_steals"
	metricSchedInline        = "sched_inline"
	metricSchedParks         = "sched_parks"
	metricSchedWakes         = "sched_wakes"
	metricConvertInSeconds   = "convert_in_seconds"
	metricComputeSeconds     = "compute_seconds"
	metricConvertOutSeconds  = "convert_out_seconds"
	metricTotalSeconds       = "total_seconds"
	metricGFLOPS             = "gflops"
	metricUtilization        = "worker_utilization"
	// The batched wave driver records one gemm_batch_calls per wave,
	// gemm_batch_items per member scheduled into it, and the wave size
	// in the batch_size histogram — the engine-side view of how much
	// per-call overhead the batch path amortized.
	metricBatchCalls  = "gemm_batch_calls"
	metricBatchItems  = "gemm_batch_items"
	metricBatchSize   = "batch_size"
	metricBatchErrors = "gemm_batch_item_errors"
	// metricKernelCallsPrefix labels calls by the leaf kernel that
	// actually ran (e.g. kernel_calls_avx2) — with runtime CPU dispatch
	// in front of the kernels, traces and scrapes must show which
	// implementation executed, not which was requested.
	metricKernelCallsPrefix = "kernel_calls_"
	// metricAlgSelectedPrefix labels calls by the algorithm that
	// actually ran (e.g. alg_selected_winograd). With AlgAuto and
	// the admission ladder both able to move a call off the requested
	// algorithm, scrapes need the resolved choice to see what the
	// selection policy is doing in production.
	metricAlgSelectedPrefix = "alg_selected_"
)

// recordCallMetrics aggregates one finished driver call into the
// registry. Called from a defer declared before the recover boundary,
// so it sees the final stats/err pair even when the call panicked its
// way out.
func recordCallMetrics(m *obs.Registry, stats *Stats, err error, wall time.Duration) {
	if m == nil {
		return
	}
	m.Counter(metricGEMMCalls).Inc()
	if err != nil {
		m.Counter(metricGEMMErrors).Inc()
		return
	}
	if stats == nil {
		return
	}
	if stats.Kernel != "" {
		m.Counter(metricKernelCallsPrefix + stats.Kernel).Inc()
	}
	m.Counter(metricAlgSelectedPrefix + stats.Alg.String()).Inc()
	m.Counter(metricDegradations).Add(int64(len(stats.Degraded)))
	m.Counter(metricPoolHits).Add(int64(stats.PoolHits))
	m.Counter(metricPoolMisses).Add(int64(stats.PoolMisses))
	m.Counter(metricPackReused).Add(int64(stats.PackReused))
	m.Counter(metricPackDeferred).Add(int64(stats.PackDeferred))
	m.Counter(metricConvertBytes).Add(stats.ConvertBytes)
	m.Counter(metricArenaFallbackBytes).Add(stats.AllocBytes)
	m.Counter(metricSchedSpawns).Add(stats.Spawns)
	m.Counter(metricSchedSteals).Add(stats.Steals)
	m.Counter(metricSchedInline).Add(stats.Inline)
	m.Counter(metricSchedParks).Add(stats.Parks)
	m.Counter(metricSchedWakes).Add(stats.Wakes)
	m.Histogram(metricConvertInSeconds, obs.SecondsBuckets).Observe(stats.ConvertIn.Seconds())
	m.Histogram(metricComputeSeconds, obs.SecondsBuckets).Observe(stats.Compute.Seconds())
	m.Histogram(metricConvertOutSeconds, obs.SecondsBuckets).Observe(stats.ConvertOut.Seconds())
	m.Histogram(metricTotalSeconds, obs.SecondsBuckets).Observe(wall.Seconds())
	if s := stats.Compute.Seconds(); s > 0 && stats.Work > 0 {
		m.Histogram(metricGFLOPS, obs.GFLOPSBuckets).Observe(stats.Work / s / 1e9)
	}
	if stats.Utilization > 0 {
		m.Histogram(metricUtilization, obs.RatioBuckets).Observe(stats.Utilization)
	}
}
