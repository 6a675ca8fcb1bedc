package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	recmat "repro"
	"repro/internal/faultinject"
)

// refGEMM computes the request's expected C column-major data and its
// entrywise 1-norm by brute force from the seeds.
func refGEMM(req *Request) ([]float64, float64) {
	A := recmat.RandomSeeded(req.M, req.K, req.ASeed)
	B := recmat.RandomSeeded(req.K, req.N, req.BSeed)
	var C *recmat.Matrix
	if req.CSeed != 0 {
		C = recmat.RandomSeeded(req.M, req.N, req.CSeed)
	} else {
		C = recmat.NewMatrix(req.M, req.N)
	}
	want := make([]float64, 0, req.M*req.N)
	var norm float64
	for j := 0; j < req.N; j++ {
		for i := 0; i < req.M; i++ {
			var dot float64
			for p := 0; p < req.K; p++ {
				dot += A.At(i, p) * B.At(p, j)
			}
			v := req.alpha()*dot + req.Beta*C.At(i, j)
			want = append(want, v)
			norm += math.Abs(v)
		}
	}
	return want, norm
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// groupOf returns the members of the open group req would join — those
// gathered under its key while their leader waits for a slot — or nil
// when none is open.
func groupOf(t *testing.T, s *Server, req *Request) []*member {
	t.Helper()
	m, err := s.parse(req)
	if err != nil {
		t.Fatal(err)
	}
	s.co.mu.Lock()
	defer s.co.mu.Unlock()
	if g := s.co.groups[m.key]; g != nil {
		return append([]*member(nil), g.members...)
	}
	return nil
}

// waitGroup waits until the open group req would join has n members.
func waitGroup(t *testing.T, s *Server, req *Request, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("a group of %d to gather", n), func() bool { return len(groupOf(t, s, req)) == n })
}

// batchReq builds one coalescable request: named operand, recursive
// layout, width inside one partner bucket.
func batchReq(i int) *Request {
	return &Request{
		Tenant: "acme", M: 96, K: 96, N: 17 + i%8,
		AName: "w", ASeed: 5, BSeed: int64(100 + i),
		Layout: "z", DeadlineMS: 5000, ReturnData: true,
	}
}

// TestCoalescingUnderConcurrency: with the single execution slot held,
// concurrent requests hashing to the same plan-cache entry pile into
// coalescing groups; releasing the slot runs them as batched engine
// calls. Every response must be correct against a brute-force
// reference, equal bit for bit what a server that coalesces nothing
// answers the same request with, carry the coalescing markers, and move
// the coalescing metrics.
func TestCoalescingUnderConcurrency(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, MaxInflight: 1, QueueDepth: 64, MaxQueueWait: 5 * time.Second})

	// Occupy the only execution slot so every request must queue — the
	// deterministic batching window.
	release, _, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const n = 12
	reqs := make([]*Request, n)
	resps := make([]*Response, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		reqs[i] = batchReq(i)
		if i%3 == 0 {
			reqs[i].CSeed = int64(i + 1)
			reqs[i].Beta = 0.5
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = c.Do(context.Background(), reqs[i])
		}(i)
	}

	// 12 same-key requests against maxBatch=8 form exactly two groups:
	// one full wave of 8 (displaced from the map once full) and one of 4
	// still open, i.e. two leaders in the queue. Wait for that exact end
	// state — the queue gauge alone hits 2 before the last joiners have
	// arrived.
	waitGroup(t, s, reqs[0], n-s.co.maxBatch)
	waitFor(t, "both leaders queued", func() bool { return s.reg.Gauge("queue_depth").Value() == 2 })
	release()
	wg.Wait()

	// Whether a request was coalesced must not show in its result: the
	// same requests, one engine call each.
	_, solo := newTestServer(t, Config{Workers: 2, MaxBatch: 1})

	coalesced := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		resp := resps[i]
		alone, err := solo.Do(context.Background(), reqs[i])
		if err != nil || alone.Coalesced {
			t.Fatalf("request %d served alone: err %v, coalesced %v", i, err, alone != nil && alone.Coalesced)
		}
		if len(alone.Data) != len(resp.Data) {
			t.Fatalf("request %d: data length %d coalesced, %d alone", i, len(resp.Data), len(alone.Data))
		}
		for idx := range alone.Data {
			if resp.Data[idx] != alone.Data[idx] {
				t.Fatalf("request %d: C[%d] = %v coalesced, %v served alone", i, idx, resp.Data[idx], alone.Data[idx])
			}
		}
		if !resp.PlanCached {
			t.Errorf("request %d: not plan-cached", i)
		}
		if resp.Coalesced {
			coalesced++
			if resp.BatchSize < 2 {
				t.Errorf("request %d: coalesced with batch size %d", i, resp.BatchSize)
			}
		}
		want, norm := refGEMM(reqs[i])
		if len(resp.Data) != len(want) {
			t.Fatalf("request %d: data length %d, want %d", i, len(resp.Data), len(want))
		}
		for idx := range want {
			if math.Abs(resp.Data[idx]-want[idx]) > 1e-10 {
				t.Fatalf("request %d: C[%d] = %g, want %g", i, idx, resp.Data[idx], want[idx])
			}
		}
		if math.Abs(resp.CNorm-norm) > 1e-9*math.Max(norm, 1) {
			t.Fatalf("request %d: CNorm = %g, want %g", i, resp.CNorm, norm)
		}
	}
	if coalesced != n {
		t.Errorf("coalesced responses = %d, want %d (both waves had ≥2 members)", coalesced, n)
	}
	snap := s.Metrics().Snapshot()
	if snap.Counters["requests_coalesced"] < int64(n) {
		t.Errorf("requests_coalesced = %d, want ≥ %d", snap.Counters["requests_coalesced"], n)
	}
	if h := snap.Histograms["coalesce_batch_size"]; h.Count < 2 {
		t.Errorf("coalesce_batch_size observations = %d, want ≥ 2", h.Count)
	}
	if snap.Gauges["coalesce_rate_pct"] == 0 {
		t.Error("coalesce_rate_pct gauge is zero after coalesced waves")
	}
	if snap.Counters["gemm_batch_calls"] == 0 {
		t.Error("engine recorded no batched calls")
	}
}

// TestCoalesceMemberCancelIsolation: a member whose client disconnects
// while its wave is queued is dropped from the wave with a typed error
// — and its siblings complete correctly. The expired member must not
// poison the wave.
func TestCoalesceMemberCancelIsolation(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, MaxInflight: 1, QueueDepth: 64, MaxQueueWait: 5 * time.Second})

	release, _, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const n = 4
	const doomed = 2
	reqs := make([]*Request, n)
	resps := make([]*Response, n)
	errs := make([]error, n)
	dctx, dcancel := context.WithCancel(context.Background())
	defer dcancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		reqs[i] = batchReq(i)
		ctx := context.Background()
		if i == doomed {
			ctx = dctx
		}
		wg.Add(1)
		go func(i int, ctx context.Context) {
			defer wg.Done()
			resps[i], errs[i] = c.Do(ctx, reqs[i])
		}(i, ctx)
	}

	waitGroup(t, s, reqs[0], n)
	// Disconnect the doomed member's client, then let the wave run.
	dcancel()
	waitFor(t, "one wave leader queued", func() bool {
		return s.reg.Gauge("queue_depth").Value() == 1
	})
	release()
	wg.Wait()

	for i := 0; i < n; i++ {
		if i == doomed {
			if errs[i] == nil {
				t.Fatal("doomed member's request did not fail")
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("sibling %d poisoned by the cancelled member: %v", i, errs[i])
		}
		want, _ := refGEMM(reqs[i])
		for idx := range want {
			if math.Abs(resps[i].Data[idx]-want[idx]) > 1e-10 {
				t.Fatalf("sibling %d: C[%d] = %g, want %g", i, idx, resps[i].Data[idx], want[idx])
			}
		}
	}
}

// TestCoalesceFaultInjectionTyped: under injected panics and delays,
// every coalesced-path request either succeeds with a verifiable result
// or fails with a typed error — no hangs, no untyped 500s from escaped
// panics, and the server still drains cleanly (the cleanup asserts it).
func TestCoalesceFaultInjectionTyped(t *testing.T) {
	// The panic probability is per injection point, and the engine fires
	// one per leaf task — survival compounds, so keep it at chaos-soak
	// scale rather than anything that looks per-request.
	faultinject.Configure(faultinject.Config{PanicProb: 0.004, DelayProb: 0.05, Delay: time.Millisecond, Seed: 23})
	defer faultinject.Disable()
	_, c := newTestServer(t, Config{Workers: 2, MaxInflight: 2, QueueDepth: 64, MaxQueueWait: 5 * time.Second})

	const n = 40
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok, failed := 0, 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := batchReq(i)
			resp, err := c.Do(context.Background(), req)
			if err != nil {
				var apiErr *APIError
				if !errors.As(err, &apiErr) {
					t.Errorf("request %d: untyped failure: %v", i, err)
					return
				}
				switch apiErr.Info.Kind {
				case KindInternal, KindShed, KindQuota, KindDeadline, KindCanceled, KindDraining:
				default:
					t.Errorf("request %d: unexpected error kind %q: %v", i, apiErr.Info.Kind, err)
				}
				mu.Lock()
				failed++
				mu.Unlock()
				return
			}
			_, norm := refGEMM(req)
			if math.Abs(resp.CNorm-norm) > 1e-9*math.Max(norm, 1) {
				t.Errorf("request %d: CNorm = %g, want %g", i, resp.CNorm, norm)
			}
			mu.Lock()
			ok++
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if ok == 0 {
		t.Error("no request succeeded under fault injection")
	}
	t.Logf("fault injection: %d ok, %d typed failures", ok, failed)
}

// TestDrainDuringCoalesce: a drain that fires while a coalescing group
// is still gathering (its leader queued, no slot available) must settle
// every member with the typed draining error and complete — the
// drain-during-coalesce regression.
func TestDrainDuringCoalesce(t *testing.T) {
	s, c := newTestServer(t, Config{
		Workers: 2, MaxInflight: 1, QueueDepth: 64,
		MaxQueueWait: 10 * time.Second, DrainTimeout: 100 * time.Millisecond,
	})

	release, _, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	const n = 5
	errs := make([]error, n)
	var wg sync.WaitGroup
	reqs := make([]*Request, n)
	for i := 0; i < n; i++ {
		reqs[i] = batchReq(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Do(context.Background(), reqs[i])
		}(i)
	}
	waitGroup(t, s, reqs[0], n)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] == nil {
			t.Fatalf("member %d succeeded during drain", i)
		}
		if !errors.Is(errs[i], ErrDraining) {
			t.Fatalf("member %d: error is not the typed draining kind: %v", i, errs[i])
		}
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain wedged with a coalescing group open")
	}
}

// TestOneSpecEveryGroup: what group a request rode in picks the engine
// call and nothing a client can see in C. One spec — unnamed and
// column-major, named alone, named on a server that coalesces nothing,
// and named in a held-slot wave of four — is right by brute force every
// time, one set of bits whenever it is named, and reports the
// plan_cached / coalesced / batch_size its group had.
func TestOneSpecEveryGroup(t *testing.T) {
	alpha := 1.5
	spec := Request{
		Tenant: "acme", M: 96, K: 96, N: 24, ASeed: 5, BSeed: 6, CSeed: 7,
		Alpha: &alpha, Beta: 0.5, DeadlineMS: 5000, ReturnData: true,
	}
	named := spec
	named.AName, named.Layout = "w", "z"
	want, _ := refGEMM(&spec)

	var bits []float64 // of the first named answer
	check := func(row string, resp *Response, err error, cached, coalesced bool, size int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", row, err)
		}
		if resp.PlanCached != cached || resp.Coalesced != coalesced || resp.BatchSize != size {
			t.Errorf("%s: plan_cached %v, coalesced %v, batch_size %d; want %v, %v, %d",
				row, resp.PlanCached, resp.Coalesced, resp.BatchSize, cached, coalesced, size)
		}
		if len(resp.Data) != len(want) {
			t.Fatalf("%s: %d elements echoed, want %d", row, len(resp.Data), len(want))
		}
		if cached && bits == nil {
			bits = resp.Data
		}
		for i, v := range resp.Data {
			if math.Abs(v-want[i]) > 1e-10 {
				t.Fatalf("%s: C[%d] = %g, want %g", row, i, v, want[i])
			}
			if cached && v != bits[i] {
				t.Fatalf("%s: C[%d] = %v, the first named answer has %v", row, i, v, bits[i])
			}
		}
	}

	s, c := newTestServer(t, Config{Workers: 2, MaxInflight: 1, QueueDepth: 64, MaxQueueWait: 5 * time.Second})
	resp, err := c.Do(context.Background(), &spec)
	check("unnamed", resp, err, false, false, 0)
	resp, err = c.Do(context.Background(), &named)
	check("named alone", resp, err, true, false, 1)

	_, off := newTestServer(t, Config{Workers: 2, MaxBatch: -1})
	resp, err = off.Do(context.Background(), &named)
	check("named, coalescing off", resp, err, true, false, 1)

	release, _, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	resps, errs := make([]*Response, n), make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = c.Do(context.Background(), &named)
		}(i)
	}
	waitGroup(t, s, &named, n)
	release()
	wg.Wait()
	for i := 0; i < n; i++ {
		check(fmt.Sprintf("named, wave member %d", i), resps[i], errs[i], true, true, n)
	}
}
