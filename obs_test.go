package recmat

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// TestSchedulerStats pins the counter contract of the public
// scheduler-stats surface: counters only grow across calls, successful
// steals and wake-ups never outnumber spawned tasks (a steal takes a
// task that was spawned, a wake-up is sent by a spawn), and
// ResetSchedulerStats restarts the count from zero. Parks is left out of
// the zero checks: idle workers park on their own.
func TestSchedulerStats(t *testing.T) {
	eng := NewEngine(4)
	defer eng.Close()
	rng := rand.New(rand.NewSource(31))
	n := 128
	A := Random(n, n, rng)
	B := Random(n, n, rng)
	opts := &Options{Layout: ZMorton, Algorithm: Strassen, FastCutoff: paperCutoff, ForceTile: 16}

	prev := eng.SchedulerStats()
	if prev.Spawns != 0 || prev.Steals != 0 || prev.Inline != 0 || prev.Wakes != 0 {
		t.Fatalf("fresh engine has non-zero scheduler stats: %+v", prev)
	}
	for i := 0; i < 3; i++ {
		C := NewMatrix(n, n)
		if _, err := eng.Mul(C, A, B, opts); err != nil {
			t.Fatal(err)
		}
		cur := eng.SchedulerStats()
		if cur.Spawns < prev.Spawns || cur.Steals < prev.Steals || cur.Inline < prev.Inline ||
			cur.Parks < prev.Parks || cur.Wakes < prev.Wakes {
			t.Fatalf("call %d: counters regressed: %+v -> %+v", i, prev, cur)
		}
		if cur.Spawns == prev.Spawns {
			t.Fatalf("call %d: a 128³ Strassen multiply spawned no tasks", i)
		}
		if cur.Steals > cur.Spawns || cur.Wakes > cur.Spawns {
			t.Fatalf("call %d: steals %d or wakes %d exceed spawns %d", i, cur.Steals, cur.Wakes, cur.Spawns)
		}
		prev = cur
	}
	eng.ResetSchedulerStats()
	if s := eng.SchedulerStats(); s.Spawns != 0 || s.Steals != 0 || s.Inline != 0 || s.Wakes != 0 {
		t.Fatalf("stats after reset: %+v, want zeroes", s)
	}
}

// TestEngineTracing exercises the public tracing lifecycle end to end:
// enable, run traced multiplications, disable, and check the exported
// Chrome trace validates and contains worker activity plus per-call
// lanes.
func TestEngineTracing(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(32))
	n := 96
	A := Random(n, n, rng)
	B := Random(n, n, rng)
	want := NewMatrix(n, n)
	RefGEMM(false, false, 1, A, B, 0, want)

	if err := eng.EnableTracing(nil); err == nil {
		t.Fatal("EnableTracing(nil) succeeded")
	}
	if err := eng.DisableTracing(); err == nil {
		t.Fatal("DisableTracing without EnableTracing succeeded")
	}
	var buf bytes.Buffer
	if err := eng.EnableTracing(&buf); err != nil {
		t.Fatal(err)
	}
	if err := eng.EnableTracing(&buf); err == nil {
		t.Fatal("double EnableTracing succeeded")
	}
	for _, alg := range []Algorithm{Standard, Strassen} {
		C := NewMatrix(n, n)
		if _, err := eng.Mul(C, A, B, &Options{Layout: ZMorton, Algorithm: alg, ForceTile: 16}); err != nil {
			t.Fatal(err)
		}
		if !Equal(C, want, 1e-10) {
			t.Fatalf("%v traced result wrong (max diff %g)", alg, MaxAbsDiff(C, want))
		}
	}
	if err := eng.DisableTracing(); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if sum.Spans == 0 || sum.Tracks < 3 {
		t.Fatalf("trace too thin: %d spans on %d tracks, want spans on 2 workers + 2 call lanes", sum.Spans, sum.Tracks)
	}
	// The engine is reusable: a second enable/disable cycle works.
	var buf2 bytes.Buffer
	if err := eng.EnableTracing(&buf2); err != nil {
		t.Fatalf("re-enable after disable: %v", err)
	}
	if err := eng.DisableTracing(); err != nil {
		t.Fatalf("disable of an empty trace: %v", err)
	}
}

// TestMetricsSnapshotConcurrent is the acceptance bound on the metrics
// leg: 8 concurrent GEMM callers on one engine while another goroutine
// snapshots continuously must be race-free (run under -race), and the
// final snapshot must account for every call.
func TestMetricsSnapshotConcurrent(t *testing.T) {
	const callers, iters = 8, 4
	eng := NewEngine(4)
	defer eng.Close()
	rng := rand.New(rand.NewSource(33))
	n := 96
	A := Random(n, n, rng)
	B := Random(n, n, rng)

	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = eng.Metrics().Snapshot()
		}
	}()
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				C := NewMatrix(n, n)
				opts := &Options{
					Layout:    []Layout{ZMorton, Hilbert, ColMajor}[g%3],
					Algorithm: []Algorithm{Standard, Strassen}[g%2], FastCutoff: paperCutoff,
					ForceTile: 16,
				}
				if _, err := eng.Mul(C, A, B, opts); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-snapDone
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	s := eng.Metrics().Snapshot()
	if got := s.Counters["gemm_calls"]; got != callers*iters {
		t.Fatalf("gemm_calls = %d, want %d", got, callers*iters)
	}
	if got := s.Counters["gemm_errors"]; got != 0 {
		t.Fatalf("gemm_errors = %d, want 0", got)
	}
	th := s.Histograms["total_seconds"]
	if th.Count != callers*iters {
		t.Fatalf("total_seconds count = %d, want %d", th.Count, callers*iters)
	}
	if th.Mean() <= 0 {
		t.Fatalf("total_seconds mean = %g, want > 0", th.Mean())
	}
}

// TestWorkerUtilization is the acceptance bound on busy accounting: a
// parallel multiply on a 4-worker engine must report a utilization
// that is positive and clamped within (0, 1].
func TestWorkerUtilization(t *testing.T) {
	if testing.Short() {
		t.Skip("1024³ multiply in -short mode")
	}
	// Collect this test's ~25MB of matrices and pooled tile buffers
	// before the next test starts: on a single-CPU host under -race a
	// deferred concurrent GC otherwise lands inside a neighboring
	// test's latency measurement.
	t.Cleanup(runtime.GC)
	eng := NewEngine(4)
	defer eng.Close()
	rng := rand.New(rand.NewSource(34))
	n := 1024
	A := Random(n, n, rng)
	B := Random(n, n, rng)
	C := NewMatrix(n, n)
	rep, err := eng.Mul(C, A, B, &Options{Layout: ZMorton, Algorithm: Standard})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Utilization <= 0 || rep.Utilization > 1 {
		t.Fatalf("Utilization = %g, want in (0, 1]", rep.Utilization)
	}
	if rep.Spawns <= 0 {
		t.Fatalf("Spawns = %d, want > 0 for a parallel 1024³ multiply", rep.Spawns)
	}
}

// TestStressTracingUnderFaults runs `make stress`'s fault schedule with
// tracing enabled: concurrent multiplications that randomly panic,
// fail allocation, and stall must neither trip the race detector on
// the tracer's rings nor corrupt the exported trace.
func TestStressTracingUnderFaults(t *testing.T) {
	if !faultinject.Enabled() {
		faultinject.Configure(faultinject.Config{
			PanicProb: 0.005, AllocProb: 0.01, DelayProb: 0.005,
			Delay: 50 * time.Microsecond, Seed: 11,
		})
		defer faultinject.Disable()
	}
	eng := NewEngine(4)
	defer eng.Close()
	rng := rand.New(rand.NewSource(35))
	n := 96
	A := Random(n, n, rng)
	B := Random(n, n, rng)

	// A small ring forces wraparound during the run, covering the
	// overwrite path under real concurrency, not just the unit test.
	var buf bytes.Buffer
	if err := eng.EnableTracing(&buf); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				C := NewMatrix(n, n)
				opts := &Options{
					Layout:    []Layout{ZMorton, Hilbert}[g%2],
					Algorithm: []Algorithm{Standard, Strassen, Winograd}[i%3], FastCutoff: paperCutoff,
					ForceTile: 16,
				}
				_, _ = eng.Mul(C, A, B, opts) // injected faults may fail the call; that is the point
			}
		}(g)
	}
	wg.Wait()
	if err := eng.DisableTracing(); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("trace exported under faults invalid: %v", err)
	}
	s := eng.Metrics().Snapshot()
	if got := s.Counters["gemm_calls"]; got != 32 {
		t.Fatalf("gemm_calls = %d, want 32 (every call counted, failed or not)", got)
	}
}
