package recmat

import (
	"bytes"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
)

// This file is the `make obs-gate` acceptance suite, env-gated behind
// RECMAT_OBS_GATE because it measures wall time and belongs in the
// dedicated gate target, not in every `go test ./...` run.
//
// The overhead bound is computed in one process rather than by
// comparing two timed runs: cross-run wall-clock comparison at the 2%
// level is hopeless on a shared host (individual runs swing far more
// than 2% between identical binaries). Instead the gate measures the
// two quantities the disabled-path cost actually factors into —
// (a) the cost of one disabled tracepoint (an atomic load and a
// branch), measured in a tight loop, and (b) the number of tracepoints
// a real multiply executes, counted by tracing that same multiply —
// and bounds their product against the multiply's wall time.

func obsGateEnabled(t *testing.T) {
	t.Helper()
	if os.Getenv("RECMAT_OBS_GATE") == "" {
		t.Skip("set RECMAT_OBS_GATE=1 to run the observability gates (make obs-gate)")
	}
}

// gateWorkload runs the gate's reference multiply: one 512³ Strassen
// multiply in Z-Morton layout, returning the wall time.
func gateWorkload(t *testing.T, eng *Engine, A, B *Matrix) time.Duration {
	t.Helper()
	C := NewMatrix(512, 512)
	t0 := time.Now()
	if _, err := eng.Mul(C, A, B, &Options{Layout: ZMorton, Algorithm: Strassen, FastCutoff: paperCutoff}); err != nil {
		t.Fatal(err)
	}
	return time.Since(t0)
}

func TestObsGateDisabledOverhead(t *testing.T) {
	obsGateEnabled(t)
	eng := NewEngine(0)
	defer eng.Close()
	rng := rand.New(rand.NewSource(41))
	A := Random(512, 512, rng)
	B := Random(512, 512, rng)

	// (b) Tracepoint count: trace the workload once and count every
	// recorded event plus every wrapped-away drop. Each corresponds to
	// one tracepoint whose disabled form is the Cur() nil check.
	var buf bytes.Buffer
	if err := eng.EnableTracing(&buf); err != nil {
		t.Fatal(err)
	}
	gateWorkload(t, eng, A, B)
	if err := eng.DisableTracing(); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	points := float64(sum.Spans+sum.Instants) + float64(sum.Dropped)

	// (a) Per-tracepoint disabled cost: with no tracer installed,
	// obs.Cur() in a loop. The atomic load cannot be hoisted, so this
	// is the real steady-state branch-plus-load cost.
	const probes = 20_000_000
	var sink int
	p0 := time.Now()
	for i := 0; i < probes; i++ {
		if tr := obs.Cur(); tr != nil {
			sink++
		}
	}
	perProbe := time.Since(p0).Seconds() / probes
	runtime.KeepAlive(sink)

	// Untraced wall time: best of 3 to shed cold-cache noise.
	wall := gateWorkload(t, eng, A, B)
	for i := 0; i < 2; i++ {
		if w := gateWorkload(t, eng, A, B); w < wall {
			wall = w
		}
	}

	overhead := points * perProbe
	share := overhead / wall.Seconds()
	t.Logf("disabled-tracer bound: %0.f tracepoints x %.2fns = %v over %v wall (%.4f%%)",
		points, perProbe*1e9, time.Duration(overhead*1e9), wall, 100*share)
	if share > 0.02 {
		t.Fatalf("disabled-tracer overhead bound %.2f%% of n=512 wall exceeds the 2%% gate", 100*share)
	}
}

// TestObsGateLedgerOverhead bounds the ALWAYS-ON request-ledger cost
// of the serving layer: per request, one trace-serial allocation, one
// ledger ring Record, and one histogram Observe per phase. Like the
// disabled-tracer gate, the bound is computed in one process — the
// per-request ledger cost is measured in a tight loop and compared
// against the wall time of the smallest plausible served multiply
// (64³), the request shape where fixed overhead bites hardest.
func TestObsGateLedgerOverhead(t *testing.T) {
	obsGateEnabled(t)
	eng := NewEngine(0)
	defer eng.Close()
	rng := rand.New(rand.NewSource(43))
	A := Random(64, 64, rng)
	B := Random(64, 64, rng)
	C := NewMatrix(64, 64)

	// Per-request ledger pipeline cost, amortized over a tight loop.
	ring := obs.NewLedgerRing(obs.DefaultLedgerCap)
	reg := obs.NewRegistry()
	var hists [obs.NumReqPhases]*obs.Histogram
	for p := obs.ReqPhase(0); p < obs.NumReqPhases; p++ {
		hists[p] = reg.Histogram("req_phase_"+p.String()+"_seconds", obs.SecondsBuckets)
	}
	const reqs = 200_000
	l0 := time.Now()
	for i := 0; i < reqs; i++ {
		led := obs.Ledger{ID: "gate", Trace: obs.NextTraceSerial(), Tenant: "t", M: 64, K: 64, N: 64}
		for p := obs.ReqPhase(0); p < obs.NumReqPhases; p++ {
			led.PhaseNS[p] = int64(i + 1)
			hists[p].Observe(float64(i+1) / 1e9)
		}
		ring.Record(led)
	}
	perReq := time.Since(l0).Seconds() / reqs

	// Smallest-request wall time: best of 5.
	mul := func() time.Duration {
		t0 := time.Now()
		if _, err := eng.Mul(C, A, B, &Options{}); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	wall := mul()
	for i := 0; i < 4; i++ {
		if w := mul(); w < wall {
			wall = w
		}
	}

	share := perReq / wall.Seconds()
	t.Logf("ledger bound: %.0fns per request over %v min-request wall (%.4f%%)",
		perReq*1e9, wall, 100*share)
	if share > 0.02 {
		t.Fatalf("enabled-ledger overhead %.2f%% of a 64³ request exceeds the 2%% gate", 100*share)
	}
}

func TestObsGateTraceExport(t *testing.T) {
	obsGateEnabled(t)
	eng := NewEngine(0)
	defer eng.Close()
	rng := rand.New(rand.NewSource(42))
	A := Random(512, 512, rng)
	B := Random(512, 512, rng)

	var buf bytes.Buffer
	if err := eng.EnableTracing(&buf); err != nil {
		t.Fatal(err)
	}
	gateWorkload(t, eng, A, B)
	if err := eng.DisableTracing(); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("512³ Strassen trace invalid: %v", err)
	}
	if sum.Spans == 0 || sum.Instants == 0 {
		t.Fatalf("512³ Strassen trace too thin: %+v", sum)
	}
	t.Logf("trace: %d events (%d spans, %d instants) on %d tracks, %d dropped",
		sum.Events, sum.Spans, sum.Instants, sum.Tracks, sum.Dropped)
}
