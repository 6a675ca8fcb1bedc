package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	recmat "repro"
	"repro/internal/serve"
	"repro/internal/tile"
)

// serve-stream: the daemon behind a real loopback listener, driven by
// serve.Client with retries off over cfg.conns keep-alive connections.

// serveLoad is the request pool. 70 % of the specs name one of a few
// plan-cached A operands with a skinny B in layout z; the rest are
// unnamed column-major squares with β=1. The mix and the shape counts
// are exact, so every seed offers the same flops; the seed sets operand
// values and the order.
type serveLoad struct {
	specs []serve.Request
	flops []float64
	refs  []float64 // reference c_norm per spec, filled by reference()
}

func newServeLoad(sz sizes, seed int64) *serveLoad {
	rng := rand.New(rand.NewSource(seed))
	nameSeeds := make([]int64, sz.serveNames)
	for i := range nameSeeds {
		nameSeeds[i] = rng.Int63() | 1
	}
	l := &serveLoad{}
	named := sz.serveSpecs * 7 / 10
	for i := 0; i < sz.serveSpecs; i++ {
		var r serve.Request
		if i < named {
			j := i % len(nameSeeds)
			k := sz.serveNamed
			r = serve.Request{Tenant: "bench", M: k, K: k, N: sz.serveWidths[i/len(nameSeeds)%len(sz.serveWidths)],
				AName: fmt.Sprintf("A%d", j), ASeed: nameSeeds[j], BSeed: rng.Int63() | 1, Layout: "z"}
		} else {
			n := sz.serveSquares[i%len(sz.serveSquares)]
			r = serve.Request{Tenant: "bench", M: n, K: n, N: n,
				ASeed: rng.Int63() | 1, BSeed: rng.Int63() | 1, CSeed: rng.Int63() | 1, Beta: 1}
		}
		l.specs = append(l.specs, r)
	}
	rng.Shuffle(len(l.specs), func(i, j int) { l.specs[i], l.specs[j] = l.specs[j], l.specs[i] })
	for _, r := range l.specs {
		l.flops = append(l.flops, 2*float64(r.M)*float64(r.K)*float64(r.N))
	}
	return l
}

// expected computes a spec's result from its seeds with RefGEMM.
func expected(r *serve.Request) *recmat.Matrix {
	A := recmat.RandomSeeded(r.M, r.K, r.ASeed)
	B := recmat.RandomSeeded(r.K, r.N, r.BSeed)
	C := recmat.NewMatrix(r.M, r.N)
	if r.CSeed != 0 {
		C = recmat.RandomSeeded(r.M, r.N, r.CSeed)
	}
	recmat.RefGEMM(false, false, 1, A, B, r.Beta, C)
	return C
}

// reference fills the reference c_norm of every spec, on all CPUs. It
// runs after the measured phases.
func (l *serveLoad) reference() {
	l.refs = make([]float64, len(l.specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(l.specs); i = int(next.Add(1) - 1) {
				l.refs[i] = norm1(expected(&l.specs[i]))
			}
		}()
	}
	wg.Wait()
}

// sample is one request as the load generator saw it.
type sample struct {
	spec   int
	ms     float64 // closed loop: send to reply; open loop: due time to reply
	lateMS float64 // open loop: how long after its due time it was sent
	resp   *serve.Response
	err    error
}

// phase is one measured interval of daemon traffic.
type phase struct {
	samples []sample
	wall    float64 // seconds
}

func (p *phase) okMS() []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.err == nil {
			out = append(out, s.ms)
		}
	}
	return out
}

// missMS stands for the latency of a failed or refused request, which
// misses any limit (JSON cannot carry +Inf between processes).
const missMS = 1e9

// limitMS is every request's latency with failures counted as misses.
func (p *phase) limitMS() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.ms
		if s.err != nil {
			out[i] = missMS
		}
	}
	return out
}

func (l *serveLoad) okFlops(p *phase) float64 {
	var f float64
	for _, s := range p.samples {
		if s.err == nil {
			f += l.flops[s.spec]
		}
	}
	return f
}

// daemon is a serve.Server on a loopback listener plus the client that
// drives it.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	tp     *http.Transport
	client *serve.Client
}

func startDaemon(workers, conns int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: serve.New(serve.Config{Workers: workers}), served: make(chan struct{})}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	d.tp = &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	d.client = &serve.Client{BaseURL: "http://" + ln.Addr().String(),
		HTTPClient: &http.Client{Transport: d.tp}, MaxRetries: -1}
	return d, nil
}

// stop shuts the listener, drains the server and closes its engine.
func (d *daemon) stop() error {
	d.tp.CloseIdleConnections()
	err := d.hs.Shutdown(context.Background())
	<-d.served
	return errors.Join(err, d.srv.Close())
}

// warm sends every spec once, serially: it builds the cached plans and
// faults in the operand pools.
func (l *serveLoad) warm(d *daemon) error {
	for i := range l.specs {
		if _, err := d.client.Do(context.Background(), &l.specs[i]); err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return nil
}

// phaseNames are the Timing phases in the order a request passes them.
var phaseNames = [...]string{"serve.queue", "serve.gather", "serve.pack", "serve.compute", "serve.unpack"}

func phaseNS(tm *serve.Timing) [len(phaseNames)]int64 {
	if tm == nil {
		return [len(phaseNames)]int64{}
	}
	return [...]int64{tm.QueueNS, tm.GatherNS, tm.PackNS, tm.ComputeNS, tm.UnpackNS}
}

// spanChildren rebuilds a request span's children from the response's
// Timing: the phases laid back to back, centred in the client's span
// (what lies outside them is wire, decode, seeding, norm and encode).
func spanChildren(tr *tracer, parent int, client time.Duration, tm *serve.Timing) {
	ns := phaseNS(tm)
	var sum time.Duration
	for _, v := range ns {
		sum += time.Duration(v)
	}
	before := max(client-sum, 0) / 2
	for i := len(ns) - 1; i >= 0; i-- {
		tr.child(phaseNames[i], parent, before, time.Duration(ns[i]))
		before += time.Duration(ns[i])
	}
}

// closed runs a closed loop for dur, from request seq0 of the cycle
// through the pool: each connection sends its next request when the
// previous reply arrives.
func (l *serveLoad) closed(d *daemon, conns, seq0 int, dur time.Duration, tr *tracer) *phase {
	var next atomic.Int64
	next.Store(int64(seq0))
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < dur {
				seq := next.Add(1) - 1
				i := int(seq) % len(l.specs)
				sp := tr.begin("serve.request", g+1, -1, seq)
				ts := time.Now()
				resp, err := d.client.Do(context.Background(), &l.specs[i])
				lat := time.Since(ts)
				tr.end(sp)
				if err == nil {
					spanChildren(tr, sp, lat, resp.Timing)
				}
				per[g] = append(per[g], sample{spec: i, ms: float64(lat) / 1e6, resp: resp, err: err})
			}
		}()
	}
	wg.Wait()
	p := &phase{wall: time.Since(t0).Seconds()}
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	return p
}

// open runs an open loop: request i is due at i/rate seconds whatever
// the daemon does, is sent by the first free connection at or after
// that time, and is timed from its due time.
func (l *serveLoad) open(d *daemon, conns, rate int, dur time.Duration) *phase {
	n := int(float64(rate) * dur.Seconds())
	var next atomic.Int64
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := int(next.Add(1) - 1); seq < n; seq = int(next.Add(1) - 1) {
				due := t0.Add(time.Duration(float64(seq) / float64(rate) * float64(time.Second)))
				time.Sleep(time.Until(due))
				sent := time.Now()
				i := seq % len(l.specs)
				resp, err := d.client.Do(context.Background(), &l.specs[i])
				per[g] = append(per[g], sample{spec: i, ms: float64(time.Since(due)) / 1e6,
					lateMS: float64(sent.Sub(due)) / 1e6, resp: resp, err: err})
			}
		}()
	}
	wg.Wait()
	p := &phase{wall: time.Since(t0).Seconds()}
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	return p
}

// handle drives Server.Handler().ServeHTTP in-process for spec i: the
// request path without the wire.
func (l *serveLoad) handle(srv *serve.Server, i int, tr *tracer) sample {
	body, _ := json.Marshal(&l.specs[i]) // plain data: cannot fail
	req := httptest.NewRequest(http.MethodPost, "/v1/gemm", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	sp := tr.begin("serve.handler", 0, -1, int64(i))
	ts := time.Now()
	srv.Handler().ServeHTTP(rec, req)
	lat := time.Since(ts)
	tr.end(sp)
	s := sample{spec: i, ms: float64(lat) / 1e6}
	var resp serve.Response
	if rec.Code != http.StatusOK {
		s.err = fmt.Errorf("handler status %d: %s", rec.Code, rec.Body.String())
	} else if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		s.err = err
	} else {
		s.resp = &resp
		spanChildren(tr, sp, lat, resp.Timing)
	}
	return s
}

// verify counts a phase's requests into res: a request fails when it
// returned an error (shed, refused, timed out) or its c_norm is off the
// RefGEMM reference.
func (l *serveLoad) verify(p *phase, res *childResult) {
	for i := range p.samples {
		s := &p.samples[i]
		res.Attempted++
		if s.err == nil {
			want := l.refs[s.spec]
			if d := math.Abs(s.resp.CNorm - want); !(d <= probeTol*math.Max(want, 1)) {
				s.err = fmt.Errorf("spec %d: c_norm %.17g, reference %.17g", s.spec, s.resp.CNorm, want)
			}
		}
		if s.err != nil {
			res.fail(s.err)
		}
	}
}

// small sends one small unnamed request with return_data and compares
// the whole result with RefGEMM.
func (l *serveLoad) small(d *daemon, sz sizes, res *childResult) {
	n := min(sz.smallCheck, 64) // the daemon echoes at most 4096 elements
	r := serve.Request{Tenant: "bench", M: n, K: n - 3, N: n, ASeed: 11, BSeed: 12, CSeed: 13, Beta: 1, ReturnData: true}
	res.Attempted++
	resp, err := d.client.Do(context.Background(), &r)
	if err == nil && len(resp.Data) != n*n {
		err = fmt.Errorf("return_data echoed %d of %d elements", len(resp.Data), n*n)
	}
	if err == nil {
		A, B := recmat.RandomSeeded(r.M, r.K, r.ASeed), recmat.RandomSeeded(r.K, r.N, r.BSeed)
		err = refCheck(1, A, B, r.Beta, recmat.RandomSeeded(r.M, r.N, r.CSeed), recmat.FromSlice(resp.Data, n, n, n))
	}
	if err != nil {
		res.fail(fmt.Errorf("small instance: %w", err))
	}
}

// serveWindow is the untraced run: a closed loop over cfg.conns
// connections, a third of the window on a W-worker daemon, a third on a
// 1-worker daemon and a third on a W-worker daemon again (one daemon
// open at a time), so that a drift of the host moves both sides of
// speedup_wmax. A round is issued as bursts of serveBurst
// with a host-speed yardstick sample between them, while no request is
// in flight, so that every burst is a block of its own. The open loop
// and its fixed rates are the layer probe's (probes.go): from-due-time
// latencies at half the daemon's capacity swing with every stall of the
// host, too widely for a regression bound.
func serveWindow(cfg config, res *childResult) error {
	l := newServeLoad(cfg.size, cfg.seed)
	roundLen := cfg.seconds / 3
	burst := min(serveBurst, time.Duration(roundLen/2*float64(time.Second)))
	var phases []*phase
	seq := 0
	for r := 0; r < 3; r++ {
		rd := round{Kind: "w"}
		workers := cfg.workers
		if r == 1 {
			rd.Kind, workers = "base", 1
		}
		d, err := startDaemon(workers, cfg.conns)
		if err != nil {
			return err
		}
		if err := l.warm(d); err != nil {
			d.stop()
			return err
		}
		var y0 float64
		if r == 0 {
			y0 = res.setupDone(cfg)
		} else {
			y0 = yardstick(cfg.size.yardSample)
		}
		for rd.Seconds < roundLen {
			p := l.closed(d, cfg.conns, seq, burst, nil)
			y1 := yardstick(cfg.size.yardSample)
			seq += len(p.samples)
			rd.book(speedOf(cfg.workload, y0, y1), l.okFlops(p), p.wall, p.okMS())
			phases = append(phases, p)
			y0 = y1
		}
		res.Rounds = append(res.Rounds, rd)
		if r == 2 {
			l.small(d, cfg.size, res)
		}
		if err := d.stop(); err != nil {
			return err
		}
	}
	l.reference()
	for _, p := range phases {
		l.verify(p, res)
	}
	return nil
}

// serveTraced is the traced run: closed-loop rounds alternate plain
// requests and requests in client spans whose children are rebuilt from
// the response's Timing; a serial in-process handler pass follows. The
// per-workload (⁺) metrics come from the Timing phases, the daemon
// engine's scheduler counters and runtime.MemStats. What the daemon does
// not expose per request (tile, padding, utilization, work/span, arena)
// reads 0 here.
func serveTraced(cfg config, res *childResult) error {
	l := newServeLoad(cfg.size, cfg.seed)
	d, err := startDaemon(cfg.workers, cfg.conns)
	if err != nil {
		return err
	}
	defer d.stop()
	if err := l.warm(d); err != nil {
		return err
	}
	yard := []float64{res.setupDone(cfg)}
	tr := newTracer()
	round := time.Duration(cfg.seconds / roundsPerChild * float64(time.Second))
	var plain, traced []*phase
	var ms0, ms1, a, b runtime.MemStats
	var mallocs, allocBytes, spawns, steals, plainReqs float64
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for r := 0; r < roundsPerChild; r++ {
		if r%2 == 1 {
			traced = append(traced, l.closed(d, cfg.conns, 0, round, tr))
			yard = append(yard, yardstick(cfg.size.yardSample))
			continue
		}
		runtime.ReadMemStats(&a)
		s0 := d.srv.Engine().SchedulerStats()
		p := l.closed(d, cfg.conns, 0, round, nil)
		s1 := d.srv.Engine().SchedulerStats()
		runtime.ReadMemStats(&b)
		mallocs += float64(b.Mallocs - a.Mallocs)
		allocBytes += float64(b.TotalAlloc - a.TotalAlloc)
		spawns += float64(s1.Spawns - s0.Spawns)
		steals += float64(s1.Steals - s0.Steals)
		plainReqs += float64(len(p.samples))
		plain = append(plain, p)
		yard = append(yard, yardstick(cfg.size.yardSample))
	}
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	hp := &phase{} // a serial pass over the pool through the handler, in spans
	for i := range l.specs {
		hp.samples = append(hp.samples, l.handle(d.srv, i, tr))
	}
	if err := tr.write(cfg.traceOut); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	l.reference()
	var plainMS, tracedMS []float64
	var flops, seconds float64
	var timing [len(phaseNames)]float64 // summed ms per phase, plain rounds
	var timed float64
	for _, p := range plain {
		l.verify(p, res)
		plainMS = append(plainMS, p.okMS()...)
		flops += l.okFlops(p)
		seconds += p.wall
		for _, s := range p.samples {
			if s.err == nil && s.resp.Timing != nil {
				for i, v := range phaseNS(s.resp.Timing) {
					timing[i] += float64(v) / 1e6
				}
				timed++
			}
		}
	}
	for _, p := range traced {
		l.verify(p, res)
		tracedMS = append(tracedMS, p.okMS()...)
	}
	l.verify(hp, res)
	if len(plainMS) == 0 || len(tracedMS) == 0 || timed == 0 {
		return fmt.Errorf("traced window of %.2fs completed no request in one of its forms", cfg.seconds)
	}

	L := map[string]float64{}
	packMS, mulMS, unpackMS := timing[2]/timed, timing[3]/timed, timing[4]/timed
	opMS := mean(plainMS)
	L["convert.pack_ms"] = packMS
	L["convert.unpack_ms"] = unpackMS
	L["convert.share"] = ratio(packMS+unpackMS, opMS)
	L["convert.report_share"] = ratio(packMS+unpackMS, packMS+mulMS+unpackMS)
	L["core.multiled_ms"] = mulMS
	L["core.multiled_gflops"] = ratio(flops/timed, mulMS*1e6)
	L["core.driver_overhead_ms"] = opMS - (packMS + mulMS + unpackMS)
	L["harness.trace_overhead_pct"] = (ratio(median(tracedMS), median(plainMS)) - 1) * 100
	L["core.allocs_per_op"] = ratio(mallocs, plainReqs)
	L["core.alloc_kb_per_op"] = ratio(allocBytes/1024, plainReqs)
	L["sched.spawns_per_op"] = ratio(spawns, plainReqs)
	L["sched.steals_per_op"] = ratio(steals, plainReqs)
	named := tile.DefaultConfig.Pick(cfg.size.serveNamed, cfg.size.serveNamed, cfg.size.serveWidths[len(cfg.size.serveWidths)-1])
	tileGF := leafTileGflops(named.Tiles[0], named.Tiles[2], named.Tiles[1])
	L["leaf.tile_gflops"] = tileGF
	L["leaf.est_share"] = ratio(flops/seconds, tileGF*1e9*float64(cfg.workers))
	L["core.leaf_efficiency"] = ratio(L["core.multiled_gflops"], float64(cfg.workers)*tileGF)
	for _, name := range []string{"tile.useful_flop_ratio", "core.arena_mb", "sched.utilization", "sched.parallelism", "sched.analytic_parallelism"} {
		L[name] = 0
	}
	L["machine.host_speed"] = hostSpeed(cfg.workload, yard)
	procMetrics(L, &ms0, &ms1, wall)
	res.Layer = L
	last := plain[len(plain)-1].samples
	res.Info = map[string]any{
		"plain_p50_ms": median(plainMS), "traced_p50_ms": median(tracedMS),
		"plain_requests": len(plainMS), "traced_requests": len(tracedMS),
		"tile": fmt.Sprintf("%dx%dx%d", named.Tiles[0], named.Tiles[1], named.Tiles[2]),
	}
	for _, s := range last {
		if s.err == nil {
			res.Info["kernel_ran"], res.Info["alg_ran"] = s.resp.Kernel, s.resp.AlgRan
			break
		}
	}
	return nil
}
