package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// postWithHeaders issues one /v1/gemm request with extra headers and
// returns the decoded response plus the raw *http.Response (headers).
func postWithHeaders(t *testing.T, c *Client, req *Request, hdr map[string]string) (*Response, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, c.BaseURL+"/v1/gemm", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", hresp.StatusCode)
	}
	var resp Response
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return &resp, hresp
}

// TestRequestIDAndTiming: the correlation id round-trips (inbound
// X-Request-Id, W3C traceparent trace-id, or server-generated), the
// response carries the phase-attribution timing object, Server-Timing
// is set, and the ledger ring holds the request under the same id.
func TestRequestIDAndTiming(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	req := &Request{Tenant: "t", M: 16, K: 16, N: 16, ASeed: 1, BSeed: 2}

	resp, hresp := postWithHeaders(t, c, req, map[string]string{"X-Request-Id": "corr-abc"})
	if resp.RequestID != "corr-abc" {
		t.Fatalf("RequestID = %q, want corr-abc", resp.RequestID)
	}
	if hresp.Header.Get("X-Request-Id") != "corr-abc" {
		t.Fatalf("X-Request-Id header = %q", hresp.Header.Get("X-Request-Id"))
	}
	if st := hresp.Header.Get("Server-Timing"); !strings.Contains(st, "total;dur=") {
		t.Fatalf("Server-Timing = %q, want a total entry", st)
	}
	if resp.Timing == nil || resp.Timing.ComputeNS <= 0 {
		t.Fatalf("Timing = %+v, want compute_ns > 0", resp.Timing)
	}

	const tid = "0af7651916cd43dd8448eb211c80319c"
	resp, _ = postWithHeaders(t, c, req, map[string]string{
		"traceparent": "00-" + tid + "-b7ad6b7169203331-01",
	})
	if resp.RequestID != tid {
		t.Fatalf("RequestID = %q, want traceparent trace-id %s", resp.RequestID, tid)
	}

	resp, _ = postWithHeaders(t, c, req, nil)
	if !strings.HasPrefix(resp.RequestID, "req-") {
		t.Fatalf("RequestID = %q, want a generated req- id", resp.RequestID)
	}

	found := false
	for _, led := range s.ledgers.Recent(10) {
		if led.ID == "corr-abc" {
			found = true
			if led.Outcome != "ok" {
				t.Errorf("ledger outcome = %q, want ok", led.Outcome)
			}
			if led.PhaseNS[obs.PhaseCompute] <= 0 {
				t.Errorf("ledger compute = %d, want > 0", led.PhaseNS[obs.PhaseCompute])
			}
			if led.PhaseNS[obs.PhaseSerialize] <= 0 {
				t.Errorf("ledger serialize = %d, want > 0", led.PhaseNS[obs.PhaseSerialize])
			}
			if led.TotalNS <= 0 || led.Trace == 0 {
				t.Errorf("ledger total/trace = %d/%d, want both nonzero", led.TotalNS, led.Trace)
			}
		}
	}
	if !found {
		t.Fatal("no ledger recorded for corr-abc")
	}
}

// TestMetriczOpenMetrics: /metricz negotiates the OpenMetrics text
// exposition (Prometheus-shaped Accept or ?format=) and the output
// passes the lint, histograms with cumulative buckets included. The
// default stays JSON (TestHealthzAndMetricz holds that contract).
func TestMetriczOpenMetrics(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	if _, err := c.Do(context.Background(), &Request{Tenant: "t", M: 8, K: 8, N: 8, ASeed: 1, BSeed: 2}); err != nil {
		t.Fatal(err)
	}
	for _, sel := range []struct{ query, accept string }{
		{"?format=openmetrics", ""},
		{"", "application/openmetrics-text; version=1.0.0"},
		{"", "text/plain"},
	} {
		req, _ := http.NewRequest(http.MethodGet, c.BaseURL+"/metricz"+sel.query, nil)
		if sel.accept != "" {
			req.Header.Set("Accept", sel.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
			t.Fatalf("%+v: Content-Type = %q", sel, ct)
		}
		stats, err := obs.LintOpenMetrics(body)
		if err != nil {
			t.Fatalf("%+v: lint: %v", sel, err)
		}
		if stats.Histograms == 0 || stats.Families == 0 {
			t.Fatalf("%+v: stats = %+v, want histograms and families", sel, stats)
		}
		if !bytes.Contains(body, []byte(`request_seconds_bucket{le="+Inf"}`)) {
			t.Fatalf("%+v: exposition missing request_seconds +Inf bucket", sel)
		}
	}
}

// TestCoalescedWaveLedgersAndTrace is the tentpole's white-box check:
// four requests coalesced into ONE wave each get a complete ledger
// whose compute phase is the SHARED wave wall (identical across
// members), and the flight recorder's trace links each request lane to
// the wave items it rode (four flow links), validated by the same
// checker cmd/tracecheck uses.
func TestCoalescedWaveLedgersAndTrace(t *testing.T) {
	spool := t.TempDir()
	s, c := newTestServer(t, Config{
		Workers: 2, MaxInflight: 1, QueueDepth: 64, MaxQueueWait: 5 * time.Second,
		FlightSpoolDir: spool, FlightMinInterval: time.Hour,
	})
	if s.flight == nil || !s.flight.Armed() {
		t.Fatal("flight recorder not armed")
	}

	release, _, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const n = 4
	reqs := make([]*Request, n)
	resps := make([]*Response, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		reqs[i] = batchReq(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = c.Do(context.Background(), reqs[i])
		}(i)
	}
	waitGroup(t, s, reqs[0], n)
	release()
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		if !resps[i].Coalesced || resps[i].BatchSize != n {
			t.Fatalf("request %d: coalesced=%v batch=%d, want coalesced wave of %d",
				i, resps[i].Coalesced, resps[i].BatchSize, n)
		}
		if resps[i].Timing == nil || resps[i].Timing.GatherNS <= 0 {
			t.Fatalf("request %d: timing = %+v, want gather_ns > 0", i, resps[i].Timing)
		}
	}

	// Ledgers: every member records the SHARED wave compute wall.
	var leds []obs.Ledger
	for _, led := range s.ledgers.Recent(16) {
		if led.Coalesced {
			leds = append(leds, led)
		}
	}
	if len(leds) != n {
		t.Fatalf("coalesced ledgers = %d, want %d", len(leds), n)
	}
	for _, led := range leds {
		if led.Outcome != "ok" || led.BatchSize != n {
			t.Fatalf("ledger %+v: want ok outcome, batch %d", led, n)
		}
		if led.PhaseNS[obs.PhaseCompute] <= 0 {
			t.Fatalf("ledger %s: compute = %d, want > 0", led.ID, led.PhaseNS[obs.PhaseCompute])
		}
		if led.PhaseNS[obs.PhaseCompute] != leds[0].PhaseNS[obs.PhaseCompute] {
			t.Fatalf("ledger %s: compute %d differs from sibling's %d — wave compute must be shared",
				led.ID, led.PhaseNS[obs.PhaseCompute], leds[0].PhaseNS[obs.PhaseCompute])
		}
		if led.PhaseNS[obs.PhaseGather] <= 0 {
			t.Fatalf("ledger %s: gather = %d, want > 0", led.ID, led.PhaseNS[obs.PhaseGather])
		}
		// The wave's conversion walls are evidence as its compute wall is:
		// recorded, and one value across the members.
		for _, p := range []obs.ReqPhase{obs.PhasePack, obs.PhaseUnpack} {
			if led.PhaseNS[p] <= 0 || led.PhaseNS[p] != leds[0].PhaseNS[p] {
				t.Fatalf("ledger %s: %v = %d, sibling's %d; want the wave's, > 0 and shared",
					led.ID, p, led.PhaseNS[p], leds[0].PhaseNS[p])
			}
		}
	}
	engineNS := leds[0].PhaseNS[obs.PhasePack] + leds[0].PhaseNS[obs.PhaseCompute] + leds[0].PhaseNS[obs.PhaseUnpack]

	// Trace: dump a bundle and validate the request→wave-item linkage.
	name, err := s.flight.Dump("test", true)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(spool, name, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateChromeTrace(data)
	if err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if sum.RequestTracks < n {
		t.Fatalf("request tracks = %d, want ≥ %d", sum.RequestTracks, n)
	}
	if sum.FlowLinks < n {
		t.Fatalf("flow links = %d, want ≥ %d (each request linked to its wave items)", sum.FlowLinks, n)
	}
	if sum.ByName["request"] < n || sum.ByName["wave-item"] < n {
		t.Fatalf("spans by name = %v, want ≥ %d request and wave-item spans", sum.ByName, n)
	}
	// A request lane's compute span is the wall of the engine call the
	// request rode; the three engine phases of its ledger lie inside it.
	var tr struct {
		TraceEvents []struct {
			Name string
			Tid  int64
			Dur  float64 // µs
			Args struct{ Name string }
		}
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	lanes, spans := map[int64]bool{}, 0
	for _, e := range tr.TraceEvents {
		if e.Name == "thread_name" && strings.HasPrefix(e.Args.Name, "request ") {
			lanes[e.Tid] = true
		}
	}
	for _, e := range tr.TraceEvents {
		if e.Name == "compute" && lanes[e.Tid] {
			spans++
			if e.Dur*1e3 < float64(engineNS) {
				t.Errorf("lane %d: compute span %.0f ns is shorter than the ledger's pack+compute+unpack %d ns", e.Tid, e.Dur*1e3, engineNS)
			}
		}
	}
	if spans != n {
		t.Fatalf("%d compute spans on request lanes, want %d", spans, n)
	}

	// /debug/flightz serves the bundle back with the trace embedded.
	fresp, err := http.Get(c.BaseURL + "/debug/flightz?bundle=" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer fresp.Body.Close()
	var bundle map[string]json.RawMessage
	if err := json.NewDecoder(fresp.Body).Decode(&bundle); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"trace.json", "metrics.json", "ledgers.json", "meta.json"} {
		if _, okf := bundle[f]; !okf {
			t.Fatalf("flightz bundle missing %s (has %d members)", f, len(bundle))
		}
	}
}

// TestCoalescedCancelLedger: a member cancelled while its wave is
// queued still produces a COMPLETE ledger — typed outcome, gather
// phase, total — while its siblings' ledgers stay ok. Attribution must
// survive exactly the requests worth debugging.
func TestCoalescedCancelLedger(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, MaxInflight: 1, QueueDepth: 64, MaxQueueWait: 5 * time.Second})

	release, _, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const n = 4
	const doomed = 1
	reqs := make([]*Request, n)
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
			_, errs[i] = c.Do(ctx, reqs[i])
		}(i, ctx)
	}
	waitGroup(t, s, reqs[0], n)
	dcancel()
	// The client-side cancel reaches the handler's r.Context()
	// asynchronously; hold the wave until the server has observed it so
	// the doomed item enters the wave already expired.
	waitFor(t, "the cancelled member's server context", func() bool {
		g := groupOf(t, s, reqs[0])
		for _, m := range g {
			if m.rctx.Err() != nil {
				return true
			}
		}
		return g == nil
	})
	release()
	wg.Wait()

	if errs[doomed] == nil {
		t.Fatal("doomed member did not fail")
	}
	// The cancelled client never reads its response, so the settled error
	// reaches the server-side ledger, not the client. Find it there.
	okLeds, cancelLeds := 0, 0
	for _, led := range s.ledgers.Recent(16) {
		switch led.Outcome {
		case "ok":
			okLeds++
		case KindCanceled, KindDeadline:
			cancelLeds++
			if led.TotalNS <= 0 {
				t.Errorf("cancelled ledger %s: total = %d, want > 0", led.ID, led.TotalNS)
			}
			if led.PhaseNS[obs.PhaseGather] <= 0 {
				t.Errorf("cancelled ledger %s: gather = %d, want > 0 (it was in the wave)",
					led.ID, led.PhaseNS[obs.PhaseGather])
			}
			if led.Trace == 0 {
				t.Errorf("cancelled ledger %s: no trace serial", led.ID)
			}
		default:
			t.Errorf("unexpected ledger outcome %q", led.Outcome)
		}
	}
	if okLeds != n-1 || cancelLeds != 1 {
		t.Fatalf("ledgers: %d ok, %d cancelled; want %d ok, 1 cancelled", okLeds, cancelLeds, n-1)
	}
}

// TestSLOBurnDumpsOneBundle: an induced latency-objective violation
// fires the burn-rate monitor, which dumps EXACTLY one flight bundle —
// further violations inside the rate-limit interval are suppressed,
// not spooled.
func TestSLOBurnDumpsOneBundle(t *testing.T) {
	spool := t.TempDir()
	s, c := newTestServer(t, Config{
		Workers:        1,
		FlightSpoolDir: spool, FlightMinInterval: time.Hour,
		SLOObjective: time.Nanosecond, SLOQuantile: 0.5,
		SLOFastWindow: 50 * time.Millisecond, SLOSlowWindow: 100 * time.Millisecond,
		sloPoll: 10 * time.Millisecond, sloMinSamples: 3,
	})
	if s.slo == nil {
		t.Fatal("SLO monitor not started")
	}

	// Every request violates a 1ns objective; keep traffic flowing so
	// both windows stay populated past their floors.
	req := &Request{Tenant: "t", M: 8, K: 8, N: 8, ASeed: 1, BSeed: 2}
	deadline := time.Now().Add(10 * time.Second)
	for s.flight.Dumps() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no flight dump after 10s of SLO violations")
		}
		if _, err := c.Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Keep violating: the monitor keeps firing but the rate limit must
	// suppress every further automatic dump.
	until := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(until) {
		if _, err := c.Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.flight.Dumps(); got != 1 {
		t.Fatalf("dumps = %d, want exactly 1 (rate-limited)", got)
	}
	if s.flight.Suppressed() == 0 {
		t.Error("no suppressed dumps recorded while violations continued")
	}
	bundles := s.flight.List()
	if len(bundles) != 1 {
		t.Fatalf("spool holds %d bundles, want 1: %v", len(bundles), bundles)
	}
	for _, f := range []string{"trace.json", "metrics.json", "ledgers.json", "meta.json", "goroutines.txt"} {
		if _, err := os.Stat(filepath.Join(spool, bundles[0], f)); err != nil {
			t.Errorf("bundle missing %s: %v", f, err)
		}
	}
	var leds []obs.Ledger
	data, err := os.ReadFile(filepath.Join(spool, bundles[0], "ledgers.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &leds); err != nil {
		t.Fatal(err)
	}
	if len(leds) == 0 {
		t.Fatal("bundle ledgers.json is empty")
	}
	snap := s.Metrics().Snapshot()
	if snap.Counters["slo_burn_violations"] == 0 {
		t.Error("slo_burn_violations counter never moved")
	}
}

// TestLedgerCoversRequest: the ledger is closed — a request's clock
// starts at handler entry and every stretch of the handler that costs
// anything is a named phase, so the phases of a sequential request sum
// to most of its wall. What is left is handler glue and the response
// write.
func TestLedgerCoversRequest(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	for _, req := range []*Request{
		{Tenant: "t", M: 512, K: 512, N: 48, AName: "w", ASeed: 1, BSeed: 2, Layout: "z"},
		{Tenant: "t", M: 128, K: 128, N: 128, ASeed: 1, BSeed: 2, CSeed: 3, Beta: 1},
	} {
		const reps = 300
		cover := make([]float64, 0, reps)
		for i := 0; i < reps; i++ {
			// The ledger is filed after the body is written.
			filed := s.ledgers.Total() + 1
			if _, err := c.Do(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the request's ledger", func() bool { return s.ledgers.Total() == filed })
			led := s.ledgers.Recent(1)[0]
			var sum int64
			for _, ns := range led.PhaseNS {
				sum += ns
			}
			for _, p := range []obs.ReqPhase{obs.PhaseDecode, obs.PhaseSeed, obs.PhaseRespond} {
				if led.PhaseNS[p] <= 0 {
					t.Fatalf("%dx%dx%d: ledger phase %v = %d, want > 0", req.M, req.K, req.N, p, led.PhaseNS[p])
				}
			}
			cover = append(cover, float64(sum)/float64(led.TotalNS))
		}
		sort.Float64s(cover)
		if med := cover[reps/2]; med < 0.85 || med > 1 {
			t.Errorf("%dx%dx%d: the ledger's phases cover %.2f of a request at the median, want 0.85 to 1", req.M, req.K, req.N, med)
		} else {
			t.Logf("%dx%dx%d: phases cover %.2f of a request at the median", req.M, req.K, req.N, med)
		}
	}
}
