package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestChaosSoak is the end-to-end overload-and-faults soak: a
// closed-loop multi-tenant load generator drives the daemon well past
// its admission limit while faultinject fires panics, delays, and
// allocation failures inside the engine. The run asserts the daemon's
// whole robustness contract at once:
//
//   - it sheds instead of wedging (every request completes or fails
//     within its deadline; the run never stalls),
//   - every failure is typed (a known error kind, never a bare 500
//     from a wedge or an untyped panic escaping the stack),
//   - results are consistent (identical request specs produce the
//     same C-norm, so no cross-request buffer corruption),
//   - drain leaves nothing behind (no goroutine leaks, no in-flight
//     stragglers, plan cache fully freed).
//
// The default duration keeps `go test ./...` fast; `make soak` sets
// RECMAT_SOAK=60s for the real chaos run.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	duration := 3 * time.Second
	if s := os.Getenv("RECMAT_SOAK"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("bad RECMAT_SOAK %q: %v", s, err)
		}
		duration = d
	}

	before := runtime.NumGoroutine()

	faultinject.Configure(faultinject.Config{
		PanicProb: 0.002,
		AllocProb: 0.002,
		DelayProb: 0.01,
		Delay:     time.Millisecond,
		Seed:      2026,
	})
	defer faultinject.Disable()

	s := New(Config{
		Workers:          4,
		MaxInflight:      4,
		QueueDepth:       8,
		MaxQueueWait:     100 * time.Millisecond,
		TenantQuotaBytes: 8 << 20,
		DefaultDeadline:  5 * time.Second,
		MaxDeadline:      10 * time.Second,
		DrainTimeout:     5 * time.Second,
		PlanCacheBytes:   1 << 20, // tiny: constant eviction under load
		MaxDim:           256,
	})
	ts := httptest.NewServer(s.Handler())

	// C-norm consistency ledger: identical request specs must agree up
	// to the rounding variance of the degradation ladder (different
	// rungs run different algorithms for the same spec).
	type specKey struct {
		m, k, n      int
		aName        string
		aSeed, bSeed int64
		cSeed        int64
		beta         float64
		layout       string
	}
	norms := map[specKey]float64{}
	var normMu sync.Mutex
	var inconsistent []string

	gen := &LoadGen{
		Client:      &Client{BaseURL: ts.URL, MaxRetries: 1},
		Tenants:     4,
		Concurrency: 16, // 4× the admission limit: sustained overload
		MaxDim:      128,
		DeadlineMS:  4000,
		Seed:        7,
		Workload:    os.Getenv("RECMAT_SOAK_WORKLOAD"), // "batch" soaks the coalescing path

		OnResult: func(r Result) {
			if r.Err != nil || r.Resp == nil {
				return
			}
			key := specKey{
				m: r.Req.M, k: r.Req.K, n: r.Req.N,
				aName: r.Req.AName, aSeed: r.Req.ASeed, bSeed: r.Req.BSeed,
				cSeed: r.Req.CSeed, beta: r.Req.Beta, layout: r.Req.Layout,
			}
			normMu.Lock()
			defer normMu.Unlock()
			if prev, seen := norms[key]; seen {
				if math.Abs(r.Resp.CNorm-prev) > 1e-8*math.Abs(prev) {
					inconsistent = append(inconsistent, fmt.Sprintf(
						"%+v: CNorm %g vs %g", key, r.Resp.CNorm, prev))
				}
			} else {
				norms[key] = r.Resp.CNorm
			}
		},
	}

	ctx, cancel := context.WithTimeout(context.Background(), duration)
	defer cancel()

	runDone := make(chan *Summary, 1)
	go func() { runDone <- gen.Run(ctx) }()

	var sum *Summary
	select {
	case sum = <-runDone:
	case <-time.After(duration + 2*time.Minute):
		t.Fatal("load generator wedged: workers did not return after the run deadline")
	}

	t.Logf("soak: %s", sum)
	if sum.Total == 0 {
		t.Fatal("soak made no requests")
	}
	if sum.OK == 0 {
		t.Fatal("soak had no successful requests")
	}
	// Every failure must be a typed kind. "transport" would mean the
	// HTTP layer broke (a wedged handler surfaces here as a client
	// timeout); "context" appears only when the run deadline truncates
	// in-flight calls, which the closed loop makes inevitable at the
	// very end — bound it instead of forbidding it.
	known := map[string]bool{
		KindShed: true, KindQuota: true, KindTooLarge: true,
		KindDeadline: true, KindDraining: true, KindInternal: true,
		KindCanceled: true, KindBadRequest: true, "context": true,
	}
	for kind, cnt := range sum.Failed {
		if !known[kind] {
			t.Errorf("untyped failure kind %q (%d occurrences)", kind, cnt)
		}
	}
	if c := sum.Failed["context"]; c > gen.Concurrency*(gen.Client.MaxRetries+1) {
		t.Errorf("%d context failures, more than the %d the run-end truncation can explain",
			c, gen.Concurrency*(gen.Client.MaxRetries+1))
	}
	if len(inconsistent) > 0 {
		t.Errorf("inconsistent results: %v", inconsistent)
	}

	// Drain: nothing may wedge past cancellation, and nothing may leak.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	ts.Close()
	if n := s.gate.count(); n != 0 {
		t.Fatalf("%d requests still in flight after drain", n)
	}
	s.plans.mu.Lock()
	remaining := len(s.plans.entries)
	s.plans.mu.Unlock()
	if remaining != 0 {
		t.Fatalf("%d plan cache entries remain after drain", remaining)
	}

	// Goroutine-leak check: allow the httptest machinery a moment to
	// unwind, then require the count to settle near the baseline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak after drain: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// hashBits is FNV-1a over the bit patterns of data's elements.
func hashBits(data []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSoakResultConsistency replays one fixed request spec many times
// concurrently against a chaos-injected server — alone and in waves,
// whichever the load makes of it — and requires every successful
// response that reports the same alg_ran to echo the same bits of C,
// and all of them to agree on CNorm: the wire-level form of the
// β-scaled-or-complete atomicity contract (a partially written C, a
// sibling's or a recycled buffer, or a torn plan would change them).
func TestSoakResultConsistency(t *testing.T) {
	faultinject.Configure(faultinject.Config{
		PanicProb: 0.01,
		DelayProb: 0.05,
		Delay:     500 * time.Microsecond,
		Seed:      99,
	})
	defer faultinject.Disable()
	s := New(Config{Workers: 4, MaxInflight: 4, PlanCacheBytes: 64 << 10, DefaultDeadline: 30 * time.Second, MaxDeadline: 30 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	c := &Client{BaseURL: ts.URL, MaxRetries: 2}

	req := &Request{
		Tenant: "fixed", M: 48, K: 48, N: 48,
		AName: "w0", ASeed: 5, BSeed: 6, CSeed: 7, Beta: 0.5,
		Layout: "z", ReturnData: true, // 48×48 fits the echo cap
	}
	var mu sync.Mutex
	var want float64
	var got []float64
	hashes := map[string]uint64{} // by alg_ran
	var failures []string
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				resp, err := c.Do(context.Background(), req)
				mu.Lock()
				if err != nil {
					// Injected faults fail some attempts; those must be
					// typed, and the retry budget absorbs most of them.
					var apiErr *APIError
					if !errors.As(err, &apiErr) {
						failures = append(failures, fmt.Sprintf("untyped: %v", err))
					}
				} else {
					got = append(got, resp.CNorm)
					h := hashBits(resp.Data)
					if first, seen := hashes[resp.AlgRan]; !seen {
						hashes[resp.AlgRan] = h
					} else if h != first || len(resp.Data) != req.M*req.N {
						failures = append(failures, fmt.Sprintf("%s: C hashes to %016x (%d elements, batch_size %d), an earlier answer to %016x",
							resp.AlgRan, h, len(resp.Data), resp.BatchSize, first))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(failures) > 0 {
		t.Fatalf("failures: %v", failures)
	}
	if len(got) == 0 {
		t.Fatal("no successful repeats")
	}
	want = got[0]
	for i, n := range got {
		// The degradation ladder may legitimately run a different
		// algorithm on different attempts; the norms then differ only by
		// rounding. Anything larger means corruption.
		if math.Abs(n-want) > 1e-9*math.Abs(want) {
			t.Fatalf("repeat %d: CNorm %g differs from %g", i, n, want)
		}
	}
}
