// Package serve is the overload-hardened GEMM-serving layer behind
// cmd/recmatd: a stdlib-only HTTP daemon multiplying matrices for many
// concurrent tenants on one recmat Engine. Robustness is the headline,
// not throughput — every request passes an admission ladder (tenant
// quota → global semaphore → bounded queue → shed), carries a
// propagated deadline (client disconnect, client budget, server cap,
// drain cancellation) into the engine's cooperative-cancellation
// machinery, and fails only with a typed error. Degradation under
// memory pressure rides Options.MemBudget, a refcounted LRU plan cache
// amortizes operand packing across requests without ever freeing a
// plan mid-flight, and SIGTERM drains gracefully: stop admitting,
// finish or cancel in-flight work within a budget, flush metrics.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	recmat "repro"
	"repro/internal/obs"
)

// Config parameterizes a Server. The zero value is usable: every field
// has a production-shaped default.
type Config struct {
	// Workers sizes the engine's worker pool (0 = one per CPU).
	Workers int
	// MaxInflight bounds concurrently executing multiplications
	// (0 = 2× the worker count). Requests beyond it queue.
	MaxInflight int
	// QueueDepth bounds the admission queue (0 = 4× MaxInflight);
	// requests arriving with the queue full are shed with 429.
	QueueDepth int
	// MaxQueueWait bounds how long one request may sit in the queue
	// before being shed (0 = 500ms) — the wedge-proofing bound: no
	// request waits unboundedly for a slot.
	MaxQueueWait time.Duration
	// TenantQuotaBytes is each tenant's concurrent-bytes allowance
	// (0 = 256 MiB); the unused remainder becomes each request's
	// engine MemBudget.
	TenantQuotaBytes int64
	// DefaultDeadline applies when a request carries none (0 = 2s);
	// MaxDeadline caps what a request may ask for and doubles as the
	// server-side max-inflight-time (0 = 10s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// DrainTimeout is the graceful phase of Drain: how long in-flight
	// requests get to finish before being cancelled (0 = 5s).
	DrainTimeout time.Duration
	// PlanCacheBytes bounds the prepacked-plan LRU (0 = 512 MiB,
	// negative disables caching).
	PlanCacheBytes int64
	// MaxBatch bounds how many queued requests hashing to the same
	// plan-cache entry may coalesce into one batched engine call
	// (0 = 8, negative disables coalescing). The batching window is the
	// admission queue wait itself — an idle server coalesces nothing.
	MaxBatch int
	// MaxDim bounds each of m, k, n (0 = 4096).
	MaxDim int
	// Logf, when non-nil, receives operational log lines (startup,
	// drain progress, the final metrics flush).
	Logf func(format string, args ...any)

	// FlightSpoolDir, when non-empty, arms the SLO flight recorder: a
	// small always-on tracer window plus the request-ledger ring,
	// dumped as an evidence bundle to this directory on SLO violation
	// or manual trigger (/debug/flightz). Empty disables the recorder
	// (and leaves the process-global tracer slot free for explicit
	// EnableTracing runs).
	FlightSpoolDir string
	// FlightMinInterval rate-limits automatic dumps (0 = 1 minute).
	FlightMinInterval time.Duration
	// SLOObjective, when positive, starts the burn-rate monitor: the
	// request-latency quantile (SLOQuantile, default p99) is estimated
	// over a fast and a slow window, and when BOTH exceed the
	// objective the flight recorder dumps a bundle. Requires
	// FlightSpoolDir.
	SLOObjective time.Duration
	// SLOQuantile is the monitored quantile in (0, 1] (0 = 0.99).
	SLOQuantile float64
	// SLOFastWindow and SLOSlowWindow are the burn-rate windows
	// (0 = 10s and 60s).
	SLOFastWindow time.Duration
	SLOSlowWindow time.Duration
	// sloPoll is the monitor's sampling period (0 = 1s) and sloMinSamples
	// the per-window sample floor below which no violation fires (0 = 20)
	// — an idle server's noise is not a burn. No deployment has asked for
	// other values; the monitor's own test shortens both.
	sloPoll       time.Duration
	sloMinSamples int64
}

// maxReturnElems caps ReturnData echoes: a debugging aid for small
// products, not a transport.
const maxReturnElems = 4096

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * c.Workers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxInflight
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = 500 * time.Millisecond
	}
	if c.TenantQuotaBytes == 0 {
		c.TenantQuotaBytes = 256 << 20
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 10 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.PlanCacheBytes == 0 {
		c.PlanCacheBytes = 512 << 20
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	if c.MaxBatch < 0 {
		c.MaxBatch = 1 // below the coalescer's minimum: disabled
	}
	if c.MaxDim <= 0 {
		c.MaxDim = 4096
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.FlightMinInterval <= 0 {
		c.FlightMinInterval = time.Minute
	}
	if c.SLOQuantile <= 0 || c.SLOQuantile > 1 {
		c.SLOQuantile = 0.99
	}
	if c.SLOFastWindow <= 0 {
		c.SLOFastWindow = 10 * time.Second
	}
	if c.SLOSlowWindow <= 0 {
		c.SLOSlowWindow = time.Minute
	}
	if c.SLOSlowWindow < c.SLOFastWindow {
		c.SLOSlowWindow = c.SLOFastWindow
	}
	if c.sloPoll <= 0 {
		c.sloPoll = time.Second
	}
	if c.sloMinSamples <= 0 {
		c.sloMinSamples = 20
	}
	return c
}

// Server is one recmatd instance: an engine, its admission machinery,
// and the HTTP handlers. Create with New, mount Handler, and Drain on
// shutdown.
type Server struct {
	cfg   Config
	eng   *recmat.Engine
	reg   *obs.Registry
	adm   *admission
	quo   *quotas
	plans *planCache
	co    *coalescer
	mux   *http.ServeMux

	// gate tracks in-flight requests and flips atomically to draining:
	// a plain WaitGroup would race Add against Wait on the drain path.
	gate inflightGate
	// drainCtx is cancelled (cause ErrDraining) when the graceful phase
	// of Drain gives up on stragglers; request contexts are linked to it.
	drainCtx    context.Context
	drainCancel context.CancelCauseFunc

	reqTotal   *obs.Counter
	reqOK      *obs.Counter
	reqSeconds *obs.Histogram

	// Request-scoped observability: the ledger ring is always on (its
	// cost is bounded by the obs-gate), the flight recorder and SLO
	// monitor only when configured.
	ledgers   *obs.LedgerRing
	phaseHist [obs.NumReqPhases]*obs.Histogram
	flight    *obs.FlightRecorder
	slo       *sloMonitor
}

// New builds a Server and its engine. The engine's metrics registry is
// shared with the serving layer, so one scrape shows engine and daemon
// metrics side by side.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	eng := recmat.NewEngine(cfg.Workers)
	reg := eng.Metrics()
	s := &Server{
		cfg:        cfg,
		eng:        eng,
		reg:        reg,
		adm:        newAdmission(cfg.MaxInflight, cfg.QueueDepth, cfg.MaxQueueWait, reg),
		quo:        newQuotas(cfg.TenantQuotaBytes, reg),
		plans:      newPlanCache(cfg.PlanCacheBytes, reg),
		reqTotal:   reg.Counter("requests_total"),
		reqOK:      reg.Counter("requests_ok"),
		reqSeconds: reg.Histogram("request_seconds", obs.SecondsBuckets),
		ledgers:    obs.NewLedgerRing(obs.DefaultLedgerCap),
	}
	for p := obs.ReqPhase(0); p < obs.NumReqPhases; p++ {
		s.phaseHist[p] = reg.Histogram("req_phase_"+p.String()+"_seconds", obs.SecondsBuckets)
	}
	s.drainCtx, s.drainCancel = context.WithCancelCause(context.Background())
	s.co = newCoalescer(s, cfg.MaxBatch)
	if cfg.FlightSpoolDir != "" {
		fr, err := obs.NewFlightRecorder(obs.FlightConfig{
			SpoolDir:      cfg.FlightSpoolDir,
			Ring:          s.ledgers,
			Metrics:       reg,
			TracerWorkers: cfg.Workers,
			MinInterval:   cfg.FlightMinInterval,
		})
		if err != nil {
			cfg.Logf("recmatd: flight recorder disabled: %v", err)
		} else {
			s.flight = fr
			if !fr.Armed() {
				cfg.Logf("recmatd: flight recorder running without a trace window (tracer slot taken)")
			}
			if cfg.SLOObjective > 0 {
				s.slo = newSLOMonitor(s)
				s.slo.start()
			}
		}
	} else if cfg.SLOObjective > 0 {
		cfg.Logf("recmatd: SLO monitor requires FlightSpoolDir; disabled")
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/gemm", s.handleGEMM)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metricz", s.handleMetricz)
	s.mux.HandleFunc("/debug/flightz", s.handleFlightz)
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Engine exposes the underlying engine (tests and benchmarks).
func (s *Server) Engine() *recmat.Engine { return s.eng }

// Metrics returns the shared engine+daemon metrics registry.
func (s *Server) Metrics() *recmat.Metrics { return s.reg }

// FlightDumps reports how many flight bundles the SLO recorder has
// written (0 when no spool directory is configured). Benchmarks record
// it so a saturation sweep that tripped the burn-rate monitor is
// visible on the committed record.
func (s *Server) FlightDumps() int64 {
	if s.flight == nil {
		return 0
	}
	return s.flight.Dumps()
}

// inflightGate counts in-flight requests and coordinates the drain
// handshake without the WaitGroup Add-vs-Wait race: enter refuses new
// work once draining, and the last exit signals idle.
type inflightGate struct {
	mu       sync.Mutex
	n        int
	draining bool
	idle     chan struct{} // created by drain; closed when n hits 0
}

func (g *inflightGate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.n++
	return true
}

func (g *inflightGate) exit() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n--
	if g.draining && g.n == 0 && g.idle != nil {
		close(g.idle)
		g.idle = nil
	}
}

// drain flips the gate closed and returns a channel that closes when
// the last in-flight request exits (immediately if already idle).
func (g *inflightGate) drain() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.draining = true
	ch := make(chan struct{})
	if g.n == 0 {
		close(ch)
		return ch
	}
	g.idle = ch
	return ch
}

func (g *inflightGate) isDraining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

func (g *inflightGate) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// Drain is the graceful-shutdown path: stop admitting requests, give
// in-flight work DrainTimeout to finish, then cancel stragglers
// through their linked contexts and wait again, bounded by ctx. After
// the floor is clear it flushes a final metrics snapshot through Logf,
// releases the plan cache, and closes the engine. Idempotent-enough
// for one caller; returns an error only if stragglers outlived every
// budget (which indicates a wedged request — the condition the soak
// suite asserts never happens).
func (s *Server) Drain(ctx context.Context) error {
	s.cfg.Logf("recmatd: draining (%d in flight)", s.gate.count())
	idle := s.gate.drain()
	graceful := time.NewTimer(s.cfg.DrainTimeout)
	defer graceful.Stop()
	select {
	case <-idle:
	case <-graceful.C:
		s.cfg.Logf("recmatd: drain budget %v expired with %d in flight; cancelling", s.cfg.DrainTimeout, s.gate.count())
		s.drainCancel(ErrDraining)
		// Cancelled engine runs abort within roughly one leaf-kernel
		// latency; anything still here after MaxDeadline is wedged.
		hard := time.NewTimer(s.cfg.MaxDeadline)
		defer hard.Stop()
		select {
		case <-idle:
		case <-hard.C:
			return fmt.Errorf("serve: drain: %d requests wedged past cancellation", s.gate.count())
		case <-ctx.Done():
			return fmt.Errorf("serve: drain: %d requests in flight: %w", s.gate.count(), context.Cause(ctx))
		}
	case <-ctx.Done():
		s.drainCancel(ErrDraining)
		select {
		case <-idle:
		case <-time.After(s.cfg.MaxDeadline):
			return fmt.Errorf("serve: drain: %d requests wedged past cancellation", s.gate.count())
		}
	}
	if s.slo != nil {
		s.slo.stop()
	}
	if s.flight != nil {
		s.flight.Close()
	}
	if buf, err := json.Marshal(s.reg.Snapshot()); err == nil {
		s.cfg.Logf("recmatd: final metrics: %s", buf)
	}
	s.plans.close()
	s.eng.Close()
	s.cfg.Logf("recmatd: drained")
	return nil
}

// Close is Drain with a background context (tests, defer paths).
func (s *Server) Close() error { return s.Drain(context.Background()) }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.gate.isDraining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetricz serves the registry snapshot. JSON stays the default
// (the format every existing client and test expects); the OpenMetrics
// text exposition is selected by a Prometheus-shaped Accept header or
// an explicit ?format= query, so standard scrapers work unconfigured.
func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	if wantsOpenMetrics(r) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		s.reg.Snapshot().WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.reg.Snapshot())
}

func wantsOpenMetrics(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "openmetrics", "om", "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "openmetrics") || strings.Contains(accept, "text/plain")
}

// handleFlightz exposes the flight recorder: GET reports its state and
// spool, GET ?bundle= fetches one bundle's files, POST triggers a dump
// immediately (bypassing the automatic-dump rate limit — an operator
// asking for evidence should get it).
func (s *Server) handleFlightz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.flight == nil {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]any{"enabled": false})
		return
	}
	switch r.Method {
	case http.MethodPost:
		name, err := s.flight.Dump("manual", true)
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]any{"error": err.Error()})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"bundle": name})
	case http.MethodGet:
		if name := r.URL.Query().Get("bundle"); name != "" {
			s.serveFlightBundle(w, name)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"enabled":    true,
			"armed":      s.flight.Armed(),
			"dumps":      s.flight.Dumps(),
			"suppressed": s.flight.Suppressed(),
			"bundles":    s.flight.List(),
		})
	default:
		w.Header().Set("Allow", "GET, POST")
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

// serveFlightBundle returns one bundle as a JSON object keyed by file
// name: JSON members embedded raw, text members as strings. Path
// traversal is refused by construction (the name must match a listed
// bundle).
func (s *Server) serveFlightBundle(w http.ResponseWriter, name string) {
	ok := false
	for _, b := range s.flight.List() {
		if b == name {
			ok = true
			break
		}
	}
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]any{"error": "no such bundle"})
		return
	}
	dir := filepath.Join(s.cfg.FlightSpoolDir, name)
	ents, err := os.ReadDir(dir)
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(map[string]any{"error": err.Error()})
		return
	}
	out := map[string]any{"bundle": name}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, rerr := os.ReadFile(filepath.Join(dir, e.Name()))
		if rerr != nil {
			continue
		}
		if strings.HasSuffix(e.Name(), ".json") && json.Valid(data) {
			out[e.Name()] = json.RawMessage(data)
		} else {
			out[e.Name()] = string(data)
		}
	}
	json.NewEncoder(w).Encode(out)
}

// handleGEMM is the request path: decode → parse → drain gate → tenant
// quota → group (admission, materialisation, one engine call) → typed
// response. A request that can never run is refused before it reserves
// or queues for anything; every refusal is a typed error through the
// one finish path, and every reservation is released on every path.
func (s *Server) handleGEMM(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, KindBadRequest, "POST required", 0)
		return
	}
	s.reqTotal.Inc()
	rs := s.startReq(r)
	defer func() { s.reqSeconds.Observe(time.Since(rs.t0).Seconds()) }()

	var m *member
	req := new(Request)
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(req)
	if err != nil {
		err = fmt.Errorf("%w: body: %v", errBadRequest, err)
	} else {
		m, err = s.parse(req)
	}
	rs.phase(obs.PhaseDecode, time.Since(rs.t0))
	if err != nil {
		s.failReq(w, rs, err)
		return
	}
	rs.led.Tenant, rs.led.Alg = req.Tenant, req.Alg
	rs.led.M, rs.led.K, rs.led.N = req.M, req.K, req.N
	m.rctx, m.rs = r.Context(), rs

	if !s.gate.enter() {
		s.failReq(w, rs, ErrDraining)
		return
	}
	defer s.gate.exit()

	// Tenant quota: reserve the operand footprint, carry the unused
	// remainder of the quota into the engine as this call's MemBudget.
	var unreserve func()
	if m.budget, unreserve, err = s.quo.reserve(req.Tenant, operandBytes(req.M, req.K, req.N)); err != nil {
		s.failReq(w, rs, err)
		return
	}
	defer unreserve()

	resp, err := s.co.do(m)
	if err != nil {
		s.failReq(w, rs, err)
		return
	}
	s.okReq(w, rs, resp)
}

// parse settles, once and before the request reserves or queues for
// anything, what the rest of the path reads off its spec: that it is
// valid, its layout ("" is column-major; row-major parses and no driver
// multiplies on it), its algorithm resolved against the shape ("" and
// "auto" both mean per-shape selection) — so the plan key and the
// engine options see one concrete algorithm — and, for a named A in a
// recursive layout with the plan cache on, the plan-cache key, which is
// the key of the group it may join.
func (s *Server) parse(req *Request) (*member, error) {
	if err := validate(req, s.cfg.MaxDim); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	m := &member{req: req, alg: recmat.Auto, done: make(chan struct{})}
	var err error
	if req.Layout != "" {
		if m.lay, err = recmat.ParseLayout(req.Layout); err == nil && m.lay == recmat.RowMajor {
			err = fmt.Errorf("layout %q is not served", req.Layout)
		}
	}
	if err == nil && req.Alg != "" {
		m.alg, err = recmat.ParseAlgorithm(req.Alg)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", recmat.ErrDimension, err)
	}
	m.alg = recmat.ResolveAlgorithm(&recmat.Options{Layout: m.lay, Algorithm: m.alg}, req.M, req.K, req.N)
	if req.AName != "" && m.lay != recmat.ColMajor && s.cfg.PlanCacheBytes > 0 {
		m.key = planKey(req, m.lay, m.alg)
	}
	return m, nil
}

// deadline is a request's latency budget: its own, or the server's
// default when it states none, capped at MaxDeadline.
func (s *Server) deadline(req *Request) time.Duration {
	d := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		d = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	return min(d, s.cfg.MaxDeadline)
}

// acquirePlan returns the plan-cache entry under a keyed member's key,
// seeding its named A and prepacking it — split for the request's
// partner-width bucket — on a miss. The caller releases the entry.
func (s *Server) acquirePlan(m *member, opts *recmat.Options) (*planEntry, error) {
	return s.plans.acquire(m.key, func() (*recmat.Plan, error) {
		pa := seededMat(m.req.M, m.req.K, m.req.ASeed)
		popts := *opts
		popts.PartnerDim = partnerBucket(m.req.N)
		p, err := s.eng.Prepack(pa, false, &popts)
		if err == nil {
			freeMat(pa) // the plan holds its own packed copy
		}
		return p, err
	})
}

// respond builds a request's success response from the report of the
// engine call — its own, or the wave it rode in — that produced C.
func (s *Server) respond(req *Request, rep *recmat.Report, C *recmat.Matrix) *Response {
	resp := &Response{
		Tenant: req.Tenant, M: req.M, K: req.K, N: req.N,
		AlgRan:     rep.Alg.String(),
		FastCutoff: rep.FastCutoff,
		FastLevels: rep.FastLevels,
		Kernel:     rep.Kernel,
		Degraded:   rep.Degraded,
		ComputeNS:  rep.Compute.Nanoseconds(),
		TotalNS:    rep.Total().Nanoseconds(),
		CNorm:      norm1(C),
	}
	if req.ReturnData && req.M*req.N <= maxReturnElems {
		resp.Data = make([]float64, 0, req.M*req.N)
		for j := 0; j < C.Cols; j++ {
			resp.Data = append(resp.Data, C.Data[j*C.Stride:j*C.Stride+C.Rows]...)
		}
	}
	return resp
}

// planKey is the operand-identity key of the plan cache: tenant, name,
// shape, seed, layout, the partner-width bucket the plan was split for,
// and the RESOLVED algorithm (never the "auto" sentinel — two requests
// whose auto choices differ must not share a plan, and two spellings of
// the same choice must). Everything that changes the packed bytes or
// the recursion that consumes them is in the key; what may differ between
// the members of one group (n within the partner bucket, the B and C
// seeds, the scalars, the deadline) stays out of it.
func planKey(req *Request, lay recmat.Layout, alg recmat.Algorithm) string {
	return req.Tenant + "/" + req.AName +
		"/" + strconv.Itoa(req.M) + "x" + strconv.Itoa(req.K) +
		"/s" + strconv.FormatInt(req.ASeed, 10) +
		"/" + lay.String() +
		"/p" + strconv.Itoa(partnerBucket(req.N)) +
		"/a=" + alg.String()
}

// partnerBucket rounds the streamed right-hand width up to a power of
// two (min 16) so plans are shared across nearby widths instead of one
// plan per exact n.
func partnerBucket(n int) int {
	b := 16
	for b < n {
		b <<= 1
	}
	return b
}

// norm1 is the entrywise 1-norm of a column-major matrix. Four
// accumulators break the single add chain's latency dependence —
// this runs once per response, which at saturation is often enough
// to show up in profiles.
func norm1(m *recmat.Matrix) float64 {
	var s0, s1, s2, s3 float64
	for j := 0; j < m.Cols; j++ {
		col := m.Data[j*m.Stride : j*m.Stride+m.Rows]
		i := 0
		for ; i+4 <= len(col); i += 4 {
			s0 += math.Abs(col[i])
			s1 += math.Abs(col[i+1])
			s2 += math.Abs(col[i+2])
			s3 += math.Abs(col[i+3])
		}
		for ; i < len(col); i++ {
			s0 += math.Abs(col[i])
		}
	}
	return (s0 + s1) + (s2 + s3)
}

// classify maps an error to its wire kind, HTTP status, and retry hint
// — the single source of truth for the typed-error contract. Order
// matters: drain cancellation looks like a context error to the
// engine, so the serve sentinels are checked first.
func classify(err error) (kind string, status int, retryAfter time.Duration) {
	switch {
	case errors.Is(err, ErrDraining), errors.Is(err, recmat.ErrPoolClosed):
		return KindDraining, http.StatusServiceUnavailable, time.Second
	case errors.Is(err, ErrShed):
		return KindShed, http.StatusTooManyRequests, time.Second
	case errors.Is(err, ErrTooLarge):
		return KindTooLarge, http.StatusRequestEntityTooLarge, 0
	case errors.Is(err, ErrQuota):
		return KindQuota, http.StatusTooManyRequests, time.Second
	case errors.Is(err, recmat.ErrMemBudget):
		// The degradation ladder found no rung inside the tenant's
		// remaining quota; in-flight work completing may free budget.
		return KindQuota, http.StatusTooManyRequests, time.Second
	case errors.Is(err, errBadRequest), errors.Is(err, recmat.ErrNonFinite), errors.Is(err, recmat.ErrDimension):
		return KindBadRequest, http.StatusBadRequest, 0
	case errors.Is(err, context.DeadlineExceeded):
		return KindDeadline, http.StatusGatewayTimeout, 0
	case errors.Is(err, context.Canceled):
		// 499 is nginx's "client closed request"; the client is gone,
		// so the status is for the access log, not the wire.
		return KindCanceled, 499, 0
	default:
		return KindInternal, http.StatusInternalServerError, 0
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, kind, msg string, retryAfter time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((retryAfter+time.Second-1)/time.Second)))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorBody{Error: ErrorInfo{
		Kind:         kind,
		Message:      msg,
		RetryAfterMS: retryAfter.Milliseconds(),
	}})
}
