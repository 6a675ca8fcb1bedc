package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	recmat "repro"
	"repro/internal/faultinject"
)

// newTestServer builds a Server plus an httptest front end and returns
// a client for it. The server is drained at test end.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, &Client{BaseURL: ts.URL, MaxRetries: -1}
}

// waitInflight polls until n requests have passed the drain gate.
func waitInflight(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests in flight after 5s", s.gate.count(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// postRaw sends body as it stands, under the correlation id "raw", and
// returns the status, the typed error and the id the server echoed.
func postRaw(t *testing.T, c *Client, method, path, body string) (int, ErrorBody, string) {
	t.Helper()
	req, err := http.NewRequest(method, c.BaseURL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "raw")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb ErrorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	return resp.StatusCode, eb, resp.Header.Get("X-Request-Id")
}

// TestValidationErrors: a request that can never run is a typed 400, and
// every POST among them — a body that does not decode included — goes
// through the one finish path: counted, filed in the ledger ring under
// its correlation id, and never an internal error or an engine call.
func TestValidationErrors(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, MaxDim: 64})
	cases := []struct {
		name       string
		method     string
		body       string
		wantStatus int
		wantKind   string
	}{
		{"wrong method", http.MethodGet, "", http.StatusMethodNotAllowed, KindBadRequest},
		{"bad json", http.MethodPost, "{nope", http.StatusBadRequest, KindBadRequest},
		{"unknown field", http.MethodPost, `{"tenant":"t","m":4,"k":4,"n":4,"zz":1}`, http.StatusBadRequest, KindBadRequest},
		{"missing tenant", http.MethodPost, `{"m":4,"k":4,"n":4}`, http.StatusBadRequest, KindBadRequest},
		{"zero dim", http.MethodPost, `{"tenant":"t","m":0,"k":4,"n":4}`, http.StatusBadRequest, KindBadRequest},
		{"dim too big", http.MethodPost, `{"tenant":"t","m":65,"k":4,"n":4}`, http.StatusBadRequest, KindBadRequest},
		{"bad layout", http.MethodPost, `{"tenant":"t","m":4,"k":4,"n":4,"layout":"sideways"}`, http.StatusBadRequest, KindBadRequest},
		{"bad alg", http.MethodPost, `{"tenant":"t","m":4,"k":4,"n":4,"alg":"nope"}`, http.StatusBadRequest, KindBadRequest},
		{"row-major", http.MethodPost, `{"tenant":"t","m":4,"k":4,"n":4,"layout":"row"}`, http.StatusBadRequest, KindBadRequest},
		{"row-major named", http.MethodPost, `{"tenant":"t","m":4,"k":4,"n":4,"a_name":"w","layout":"row"}`, http.StatusBadRequest, KindBadRequest},
		{"non-finite alpha", http.MethodPost, `{"tenant":"t","m":4,"k":4,"n":4,"alpha":1e999}`, http.StatusBadRequest, KindBadRequest},
	}
	posts := int64(0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, eb, id := postRaw(t, c, tc.method, "/v1/gemm", tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d (%+v)", status, tc.wantStatus, eb)
			}
			if eb.Error.Kind != tc.wantKind {
				t.Fatalf("kind = %q, want %q (%+v)", eb.Error.Kind, tc.wantKind, eb)
			}
			if tc.method == http.MethodPost {
				posts++
				if id != "raw" {
					t.Errorf("X-Request-Id echoed as %q, want %q", id, "raw")
				}
			}
		})
	}
	waitFor(t, "every refusal's ledger", func() bool { return s.ledgers.Total() >= posts })
	snap := s.Metrics().Snapshot()
	for name, want := range map[string]int64{
		"requests_total": posts, "requests_failed_bad_request": posts,
		"requests_failed_internal": 0, "gemm_errors": 0,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for _, led := range s.ledgers.Recent(0) {
		if led.ID != "raw" || led.Outcome != KindBadRequest {
			t.Errorf("ledger %q has outcome %q, want raw / %s", led.ID, led.Outcome, KindBadRequest)
		}
	}
	if n := s.ledgers.Total(); n != posts {
		t.Errorf("%d ledgers filed, want %d", n, posts)
	}
}

// TestUnrunnableRefusedBeforeQueue: a layout or an algorithm that does
// not parse — a removed table's name included — is refused at once, with
// the only slot held and the queue
// wait long — it reserves no quota and takes no queue position, where a
// request that could run waits out MaxQueueWait and is shed.
func TestUnrunnableRefusedBeforeQueue(t *testing.T) {
	const queueWait = 2 * time.Second
	s, c := newTestServer(t, Config{Workers: 2, MaxInflight: 1, MaxQueueWait: queueWait})
	release, _, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	for _, field := range []string{`"layout":"sideways"`, `"layout":"z","alg":"nope"`, `"alg":"fast-3x2x3"`, `"layout":"row"`} {
		t0 := time.Now()
		status, eb, _ := postRaw(t, c, http.MethodPost, "/v1/gemm", `{"tenant":"t","m":64,"k":64,"n":32,"a_name":"w",`+field+`}`)
		if status != http.StatusBadRequest || eb.Error.Kind != KindBadRequest || eb.Error.RetryAfterMS != 0 {
			t.Errorf("%s: status %d, error %+v; want a 400 bad_request that is not retryable", field, status, eb.Error)
		}
		if d := time.Since(t0); d > queueWait/4 {
			t.Errorf("%s: refused after %v, it queued (MaxQueueWait %v)", field, d, queueWait)
		}
	}
	snap := s.Metrics().Snapshot()
	if q, shed := snap.Counters["requests_quota_denied"], snap.Counters["requests_shed"]; q != 0 || shed != 0 {
		t.Errorf("requests_quota_denied = %d, requests_shed = %d, want 0 and 0", q, shed)
	}
}

// TestGEMMCorrectness verifies the served result against a locally
// computed reference: the wire protocol's deterministic operands mean
// the client can rebuild A, B, C exactly.
func TestGEMMCorrectness(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	alpha := 1.5
	req := &Request{
		Tenant: "acme", M: 24, K: 17, N: 9,
		ASeed: 3, BSeed: 4, CSeed: 5,
		Alpha: &alpha, Beta: 0.5,
		ReturnData: true,
	}
	resp, err := c.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	A := recmat.RandomSeeded(req.M, req.K, req.ASeed)
	B := recmat.RandomSeeded(req.K, req.N, req.BSeed)
	C := recmat.RandomSeeded(req.M, req.N, req.CSeed)
	want := make([]float64, 0, req.M*req.N)
	var norm float64
	for j := 0; j < req.N; j++ {
		for i := 0; i < req.M; i++ {
			var dot float64
			for p := 0; p < req.K; p++ {
				dot += A.At(i, p) * B.At(p, j)
			}
			v := alpha*dot + req.Beta*C.At(i, j)
			want = append(want, v)
			norm += math.Abs(v)
		}
	}
	if len(resp.Data) != len(want) {
		t.Fatalf("data length = %d, want %d", len(resp.Data), len(want))
	}
	for idx := range want {
		if math.Abs(resp.Data[idx]-want[idx]) > 1e-10 {
			t.Fatalf("C[%d] = %g, want %g", idx, resp.Data[idx], want[idx])
		}
	}
	if math.Abs(resp.CNorm-norm) > 1e-9*norm {
		t.Fatalf("CNorm = %g, want %g", resp.CNorm, norm)
	}
}

// TestPlanCachePath checks that a named operand is served from the plan
// cache on repeat and still yields the right answer.
func TestPlanCachePath(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	req := &Request{
		Tenant: "acme", M: 64, K: 64, N: 32,
		AName: "weights", ASeed: 7, BSeed: 8,
		Layout: "z", ReturnData: true,
	}
	first, err := c.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !first.PlanCached {
		t.Fatal("first named request did not use the plan-cache path")
	}
	second, err := c.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Metrics().Snapshot()
	if snap.Counters["plan_cache_hits"] == 0 {
		t.Fatalf("no plan cache hits after repeat request: %v", snap.Counters)
	}
	if len(first.Data) == 0 || len(first.Data) != len(second.Data) {
		t.Fatalf("data lengths differ: %d vs %d", len(first.Data), len(second.Data))
	}
	for i := range first.Data {
		if first.Data[i] != second.Data[i] {
			t.Fatalf("cached plan changed the result at %d: %g vs %g", i, first.Data[i], second.Data[i])
		}
	}
}

// TestOnePlanPerSpelling: a request that names no layout runs on the
// library's, resolved in parse as the engine resolves it. A named spec
// spelled "", "z" and "Z-Morton" is one operand: one plan-cache entry,
// plan_cached and Z-Morton every time, the same bits. An unnamed one
// reports Z-Morton too, and is not plan-cached.
func TestOnePlanPerSpelling(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	var bits []float64
	for _, lay := range []string{"", "z", "Z-Morton", ""} {
		req := &Request{Tenant: "acme", M: 64, K: 64, N: 24, AName: "w", ASeed: 7, BSeed: 8, Layout: lay, ReturnData: true}
		resp, err := c.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("layout %q: %v", lay, err)
		}
		if !resp.PlanCached || resp.LayoutRan != recmat.ZMorton.String() {
			t.Errorf("layout %q: plan_cached %v, layout_ran %q", lay, resp.PlanCached, resp.LayoutRan)
		}
		if bits == nil {
			bits = resp.Data
		}
		for i, v := range resp.Data {
			if v != bits[i] {
				t.Fatalf("layout %q: C[%d] = %v, the first spelling's is %v", lay, i, v, bits[i])
			}
		}
	}
	s.plans.mu.Lock()
	entries := len(s.plans.entries)
	s.plans.mu.Unlock()
	if entries != 1 || s.Metrics().Snapshot().Counters["plan_cache_misses"] != 1 {
		t.Errorf("%d plan-cache entries, %d misses; want one of each", entries, s.Metrics().Snapshot().Counters["plan_cache_misses"])
	}

	req := Request{Tenant: "acme", M: 64, K: 64, N: 24, ASeed: 7, BSeed: 8}
	resp, err := c.Do(context.Background(), &req)
	if err != nil {
		t.Fatalf("%+v: %v", req, err)
	}
	if resp.PlanCached || resp.LayoutRan != recmat.ZMorton.String() {
		t.Errorf("%+v: plan_cached %v, layout_ran %q; want false, %v", req, resp.PlanCached, resp.LayoutRan, recmat.ZMorton)
	}
}

// TestOnePlanEveryWidth: one named operand requested at widths 16 to 128
// is one plan-cache entry, built — and its A seeded — once: every width
// reads the quadrants of the one plan its direct GEMM would tile. Each
// response's c_norm is the one a DGEMM of the same seeds gives.
func TestOnePlanEveryWidth(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	eng := recmat.NewEngine(2)
	defer eng.Close()
	opts := &recmat.Options{Layout: recmat.ZMorton, Algorithm: recmat.Standard}
	A := recmat.RandomSeeded(256, 256, 7)
	for _, n := range []int{16, 32, 48, 64, 128} {
		req := &Request{Tenant: "acme", M: 256, K: 256, N: n, AName: "w", ASeed: 7, BSeed: int64(n), Layout: "z", Alg: "standard"}
		resp, err := c.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		C := recmat.NewMatrix(256, n)
		if _, err := eng.DGEMM(false, false, 1, A, recmat.RandomSeeded(256, n, int64(n)), 0, C, opts); err != nil {
			t.Fatal(err)
		}
		if !resp.PlanCached || resp.CNorm != norm1(C) {
			t.Errorf("n=%d: plan_cached %v, c_norm %v; DGEMM's is %v", n, resp.PlanCached, resp.CNorm, norm1(C))
		}
	}
	s.plans.mu.Lock()
	entries := len(s.plans.entries)
	s.plans.mu.Unlock()
	if ctr := s.Metrics().Snapshot().Counters; entries != 1 || ctr["plan_cache_misses"] != 1 || ctr["plan_cache_hits"] != 4 {
		t.Errorf("%d plan-cache entries, %d misses, %d hits; want one entry, A seeded once, four hits",
			entries, ctr["plan_cache_misses"], ctr["plan_cache_hits"])
	}
}

func TestTenantQuota(t *testing.T) {
	// Quota fits one 64×64×64 request (3·64²·8 ≈ 98 KiB) but not much
	// more: a request that cannot ever fit is too_large, and the tenant
	// budget must ride into the engine as MemBudget.
	_, c := newTestServer(t, Config{Workers: 2, TenantQuotaBytes: 200 << 10})
	_, err := c.Do(context.Background(), &Request{Tenant: "big", M: 512, K: 512, N: 512, ASeed: 1, BSeed: 2})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized request: err = %v, want ErrTooLarge", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized request: status = %v, want 413", err)
	}
	// A fitting request succeeds even though the quota is far below the
	// engine's preferred working set — the degradation ladder absorbs it.
	resp, err := c.Do(context.Background(), &Request{Tenant: "small", M: 64, K: 64, N: 64, ASeed: 1, BSeed: 2})
	if err != nil {
		t.Fatalf("fitting request failed: %v", err)
	}
	if resp.CNorm == 0 {
		t.Fatal("fitting request returned zero norm")
	}
}

func TestQuotaConcurrentDenied(t *testing.T) {
	// One tenant, quota sized for ~1.5 concurrent 96³ requests, many
	// concurrent calls: some must be denied with the retryable quota
	// kind, and the denials must be exactly that kind — never a wedge,
	// never an internal error.
	faultinject.Configure(faultinject.Config{DelayProb: 1, Delay: 30 * time.Millisecond, Seed: 11})
	defer faultinject.Disable()
	s, c := newTestServer(t, Config{Workers: 2, TenantQuotaBytes: 350 << 10, MaxInflight: 8, DefaultDeadline: 30 * time.Second, MaxDeadline: 30 * time.Second})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var quotaDenied, ok int
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.Do(context.Background(), &Request{
				Tenant: "solo", M: 96, K: 96, N: 96,
				ASeed: int64(i + 1), BSeed: int64(i + 2),
			})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrQuota):
				quotaDenied++
			default:
				t.Errorf("unexpected error kind: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if ok == 0 {
		t.Fatal("no request succeeded")
	}
	if quotaDenied == 0 {
		t.Skip("no quota denial observed (requests serialized); counters still verified elsewhere")
	}
	snap := s.Metrics().Snapshot()
	if snap.Counters["requests_quota_denied"] == 0 {
		t.Fatalf("requests_quota_denied counter not incremented: %v", snap.Counters)
	}
}

func TestShedUnderOverload(t *testing.T) {
	// One execution slot, a one-deep queue, a 5ms queue wait, and every
	// request slowed by 60ms: firing 6 concurrent requests must shed at
	// least one with 429 + Retry-After while the rest complete. Nothing
	// may wedge.
	faultinject.Configure(faultinject.Config{DelayProb: 1, Delay: 60 * time.Millisecond, Seed: 3})
	defer faultinject.Disable()
	s, c := newTestServer(t, Config{
		Workers: 2, MaxInflight: 1, QueueDepth: 1, MaxQueueWait: 5 * time.Millisecond,
		DefaultDeadline: 30 * time.Second, MaxDeadline: 30 * time.Second,
	})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var shed, ok int
	var retryAfterSeen bool
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.Do(context.Background(), &Request{
				Tenant: fmt.Sprintf("t%d", i), M: 16, K: 16, N: 16,
				ASeed: int64(i + 1), BSeed: 2,
			})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrShed):
				shed++
				var apiErr *APIError
				if errors.As(err, &apiErr) {
					if apiErr.Status != http.StatusTooManyRequests {
						t.Errorf("shed status = %d, want 429", apiErr.Status)
					}
					if apiErr.Info.RetryAfterMS > 0 {
						retryAfterSeen = true
					}
				}
			default:
				t.Errorf("unexpected error kind: %v", err)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("requests wedged under overload")
	}
	if ok == 0 {
		t.Fatal("no request succeeded under overload")
	}
	if shed == 0 {
		t.Fatal("no request was shed with 1 slot, queue depth 1, 6 callers")
	}
	if !retryAfterSeen {
		t.Error("shed responses carried no Retry-After hint")
	}
	snap := s.Metrics().Snapshot()
	if snap.Counters["requests_shed"] == 0 {
		t.Fatalf("requests_shed counter not incremented: %v", snap.Counters)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	// A 1ms budget on a computation slowed to 50ms must come back as the
	// deadline kind (504), not hang and not 500.
	faultinject.Configure(faultinject.Config{DelayProb: 1, Delay: 50 * time.Millisecond, Seed: 5})
	defer faultinject.Disable()
	_, c := newTestServer(t, Config{Workers: 2})
	_, err := c.Do(context.Background(), &Request{
		Tenant: "t", M: 64, K: 64, N: 64, ASeed: 1, BSeed: 2, DeadlineMS: 1,
	})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Info.Kind != KindDeadline || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("got kind=%q status=%d, want deadline/504", apiErr.Info.Kind, apiErr.Status)
	}
}

func TestClientDisconnectCancels(t *testing.T) {
	// A client that gives up mid-request surfaces context.Canceled on
	// its side and must not leave the server wedged (Cleanup drains).
	faultinject.Configure(faultinject.Config{DelayProb: 1, Delay: 100 * time.Millisecond, Seed: 7})
	defer faultinject.Disable()
	_, c := newTestServer(t, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	_, err := c.Do(ctx, &Request{Tenant: "t", M: 32, K: 32, N: 32, ASeed: 1, BSeed: 2})
	if err == nil {
		t.Fatal("request succeeded despite client cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDrainGraceful(t *testing.T) {
	// Drain with in-flight work: readyz flips to draining, new requests
	// are rejected with the draining kind, the in-flight request either
	// completes or is cancelled as draining, and Drain returns nil.
	faultinject.Configure(faultinject.Config{DelayProb: 1, Delay: 200 * time.Millisecond, Seed: 9})
	defer faultinject.Disable()
	s := New(Config{Workers: 2, DrainTimeout: 5 * time.Second, DefaultDeadline: 30 * time.Second, MaxDeadline: 30 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, MaxRetries: -1}

	inflightErr := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), &Request{Tenant: "t", M: 32, K: 32, N: 32, ASeed: 1, BSeed: 2})
		inflightErr <- err
	}()
	waitInflight(t, s, 1)

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainDone <- s.Drain(ctx)
	}()

	// The gate flips synchronously at the start of Drain; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for !s.gate.isDraining() {
		if time.Now().After(deadline) {
			t.Fatal("gate never flipped to draining")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", resp.StatusCode)
	}
	if _, err := c.Do(context.Background(), &Request{Tenant: "t", M: 8, K: 8, N: 8, ASeed: 1, BSeed: 2}); !errors.Is(err, ErrDraining) {
		t.Fatalf("new request during drain: err = %v, want ErrDraining", err)
	}
	if err := <-inflightErr; err != nil && !errors.Is(err, ErrDraining) {
		t.Fatalf("in-flight request: err = %v, want nil or ErrDraining", err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestDrainCancelsStragglers(t *testing.T) {
	// A drain budget far smaller than the request forces the cancel
	// phase: the straggler must be cancelled through its context (kind
	// draining or canceled), and Drain must still return nil — the
	// no-wedged-requests contract.
	faultinject.Configure(faultinject.Config{DelayProb: 1, Delay: 300 * time.Millisecond, Seed: 13})
	defer faultinject.Disable()
	s := New(Config{Workers: 1, DrainTimeout: 20 * time.Millisecond, DefaultDeadline: 20 * time.Second, MaxDeadline: 20 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, MaxRetries: -1}

	inflightErr := make(chan error, 1)
	go func() {
		// Big enough that compute (every task slowed 300ms) outlives the
		// 20ms drain budget, forcing the cancel phase.
		_, err := c.Do(context.Background(), &Request{Tenant: "t", M: 512, K: 512, N: 512, ASeed: 1, BSeed: 2, DeadlineMS: 15000})
		inflightErr <- err
	}()
	waitInflight(t, s, 1)
	time.Sleep(50 * time.Millisecond) // let compute start

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case err := <-inflightErr:
		if err != nil && !errors.Is(err, ErrDraining) {
			t.Fatalf("straggler: err = %v, want nil or ErrDraining", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("straggler never returned after drain")
	}
}

func TestHealthzAndMetricz(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(c.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if _, err := c.Do(context.Background(), &Request{Tenant: "t", M: 8, K: 8, N: 8, ASeed: 1, BSeed: 2}); err != nil {
		t.Fatal(err)
	}
	mresp, err := http.Get(c.BaseURL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap recmat.MetricsSnapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["requests_total"] == 0 {
		t.Fatalf("metricz missing requests_total: %v", snap.Counters)
	}
	for _, g := range []string{"queue_depth", "tenant_active", "plan_cache_bytes"} {
		if _, present := snap.Gauges[g]; !present {
			t.Errorf("metricz missing gauge %q: %v", g, snap.Gauges)
		}
	}
	_ = s
}

// TestBetaAtomicityOnFailure checks the serving contract inherited from
// the engine: a request that fails leaves C either fully β-scaled-and-
// accumulated or untouched — here observed through the success path
// producing exactly the β-scaled result and a deadline failure
// producing no partial Data ever.
func TestBetaAtomicityOnFailure(t *testing.T) {
	faultinject.Configure(faultinject.Config{DelayProb: 1, Delay: 50 * time.Millisecond, Seed: 17})
	defer faultinject.Disable()
	_, c := newTestServer(t, Config{Workers: 2})
	resp, err := c.Do(context.Background(), &Request{
		Tenant: "t", M: 16, K: 16, N: 16, ASeed: 1, BSeed: 2, DeadlineMS: 1, ReturnData: true,
	})
	if err == nil {
		t.Skip("request completed inside 1ms; cannot observe the failure path")
	}
	if resp != nil {
		t.Fatalf("failed request returned a partial response: %+v", resp)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("failure was not typed: %v", err)
	}
}

// TestAutoAlgorithmSelection: a request without an algorithm resolves
// per shape, to Standard or — when the crossover rule for this host's
// kernel leaves the grid a fast level — Winograd, never to a rectangular
// table; a small shape resolves to Standard. The choice the daemon keys
// its plan cache on is the one the engine runs, and it surfaces in
// AlgRan, fast_cutoff/fast_levels and the alg_selected_* counters
// behind /metricz.
func TestAutoAlgorithmSelection(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 4, TenantQuotaBytes: 1 << 30})

	req := &Request{
		Tenant: "acme", M: 1296, K: 864, N: 1296,
		ASeed: 1, BSeed: 2, DeadlineMS: 8000,
	}
	resp, err := c.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := recmat.ResolveAlgorithm(&recmat.Options{Algorithm: recmat.Auto}, req.M, req.K, req.N)
	if want != recmat.Standard && want != recmat.Winograd {
		t.Fatalf("auto policy picked %v for %dx%dx%d, want Standard or Winograd",
			want, req.M, req.K, req.N)
	}
	if resp.AlgRan != want.String() {
		t.Fatalf("AlgRan = %q, want %q", resp.AlgRan, want.String())
	}
	if fast := want == recmat.Winograd; fast != (resp.FastLevels > 0) || fast != (resp.FastCutoff > 0) {
		t.Fatalf("%v ran %d fast levels at cutoff %d", want, resp.FastLevels, resp.FastCutoff)
	}
	if s.Metrics().Counter("alg_selected_"+want.String()).Value() < 1 {
		t.Fatalf("alg_selected_%s counter not incremented", want)
	}

	small := &Request{Tenant: "acme", M: 24, K: 24, N: 24, ASeed: 1, BSeed: 2}
	sresp, err := c.Do(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	if sresp.AlgRan != recmat.Standard.String() {
		t.Fatalf("small shape AlgRan = %q, want standard", sresp.AlgRan)
	}
}
