package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	recmat "repro"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// This file implements request coalescing: queued requests that hash to
// the same plan-cache entry (same tenant, named operand, shape, seed,
// layout, partner bucket — and the same algorithm) are merged into ONE
// batched engine call instead of N. The batching window is the
// admission queue itself: the first request of a group (the leader)
// waits for an execution slot exactly as a single request would, and
// every compatible request that arrives while it waits joins the group
// instead of taking its own slot. Under load — when the queue is
// non-empty and coalescing pays — windows open naturally; on an idle
// server the leader's acquire returns immediately and the request runs
// alone, paying nothing.
//
// Deadlines and cancellation stay per-request: each member carries its
// own context (client disconnect + its own deadline) into its wave
// item, so an expired member is dropped from the wave, not the wave
// from the member. Drain cancels the wave itself through the server's
// drain context.

// cmember is one request riding a coalesced wave: its spec, the unused
// tenant-quota remainder it brought as engine budget, its request
// context, and the slot its handler blocks on until the wave settles
// it with a response or a typed error.
type cmember struct {
	req    *Request
	budget int64
	rctx   context.Context
	resp   *Response
	err    error
	done   chan struct{}
	// rs is the member's request-observability state; the wave fills its
	// ledger (queue, gather, the SHARED compute wall) and stamps its
	// trace serial on the member's wave item before settling. joined is
	// when the member entered the coalescer — the start of its gather
	// phase.
	rs     *reqState
	joined time.Time
}

// trace returns the member's trace serial (0 when untraced).
func (m *cmember) trace() int64 {
	if m.rs == nil {
		return 0
	}
	return m.rs.trace
}

// cwave is one open coalescing group: the members accumulated while the
// leader waits in the admission queue.
type cwave struct {
	members []*cmember
}

// coalescer tracks the open groups and the coalescing metrics.
type coalescer struct {
	s        *Server
	maxBatch int

	mu     sync.Mutex
	groups map[string]*cwave

	// coalesced counts requests that shared their wave with at least
	// one sibling; attempts counts every request that took the batched
	// path. rate publishes 100·coalesced/attempts — the share of
	// batch-path requests that actually amortized a call.
	coalesced *obs.Counter
	attempts  *obs.Counter
	rate      *obs.Gauge
	waveSize  *obs.Histogram
}

func newCoalescer(s *Server, maxBatch int) *coalescer {
	return &coalescer{
		s:         s,
		maxBatch:  maxBatch,
		groups:    map[string]*cwave{},
		coalesced: s.reg.Counter("requests_coalesced"),
		attempts:  s.reg.Counter("coalesce_attempts"),
		rate:      s.reg.Gauge("coalesce_rate_pct"),
		waveSize:  s.reg.Histogram("coalesce_batch_size", obs.BatchBuckets),
	}
}

// eligible reports whether a request can ride a coalesced wave, and the
// parsed layout when it can: a named (plan-cacheable) operand in a
// recursive layout, with the plan cache and coalescing enabled, and an
// algorithm that parses (so the wave-wide algorithm choice is sound).
// Ineligible requests fall through to the single-call path, which also
// owns reporting any parse errors.
func (co *coalescer) eligible(req *Request) (recmat.Layout, bool) {
	if co == nil || co.maxBatch < 2 {
		return 0, false
	}
	if req.AName == "" || co.s.cfg.PlanCacheBytes <= 0 || req.Layout == "" {
		return 0, false
	}
	lay, err := recmat.ParseLayout(req.Layout)
	if err != nil || lay == recmat.ColMajor || lay == recmat.RowMajor {
		return 0, false
	}
	if req.Alg != "" {
		if _, err := recmat.ParseAlgorithm(req.Alg); err != nil {
			return 0, false
		}
	}
	return lay, true
}

// coalesceKey is the wave-compatibility key: the plan-cache key, which
// already ends in the resolved algorithm — two requests spelling the
// same choice differently ("auto" resolving to winograd vs explicit
// "winograd") share a wave. Per-member knobs (n within the partner
// bucket, B and C seeds, scalars, deadline) stay out of the key.
func coalesceKey(req *Request, lay recmat.Layout, alg recmat.Algorithm) string {
	return planKey(req, lay, alg)
}

// do runs one request through the coalescing path and blocks until its
// wave settles it. The member's handler keeps its own gate entry and
// quota reservation; only the leader touches the admission queue.
func (co *coalescer) do(rctx context.Context, req *Request, budget int64, lay recmat.Layout, rs *reqState) (*Response, error) {
	m := &cmember{req: req, budget: budget, rctx: rctx, done: make(chan struct{}), rs: rs, joined: time.Now()}
	alg, err := resolveReqAlg(req, lay)
	if err != nil {
		return nil, err
	}
	key := coalesceKey(req, lay, alg)
	co.mu.Lock()
	if g := co.groups[key]; g != nil && len(g.members) < co.maxBatch {
		g.members = append(g.members, m)
		co.mu.Unlock()
		<-m.done
		return m.resp, m.err
	}
	// No open group (or the open one is full): this request leads. A
	// full group stays in flight on its own; the map slot passes to the
	// new group, so the old leader's delete-if-still-mine is a no-op.
	g := &cwave{members: []*cmember{m}}
	co.groups[key] = g
	co.mu.Unlock()
	co.lead(key, g, lay)
	<-m.done
	return m.resp, m.err
}

// lead is the leader's side: wait for an execution slot (the batching
// window), close the group, and execute the wave. Every member is
// settled on every path — including a panic anywhere in the leader's
// frame, which must not strand joiners on their done channels.
func (co *coalescer) lead(key string, g *cwave, lay recmat.Layout) {
	var members []*cmember
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("serve: coalesced wave panicked: %v", r)
			co.mu.Lock()
			if co.groups[key] == g {
				delete(co.groups, key)
			}
			if members == nil {
				members = g.members
			}
			co.mu.Unlock()
			for _, m := range members {
				co.settle(m, nil, err)
			}
		}
	}()
	release, wait, err := co.s.adm.acquire(co.s.drainCtx)
	co.mu.Lock()
	if co.groups[key] == g {
		delete(co.groups, key)
	}
	members = g.members
	co.mu.Unlock()
	if err != nil {
		// Shed or draining: the whole group was refused admission; every
		// member reports the same typed cause.
		for _, m := range members {
			co.settle(m, nil, err)
		}
		return
	}
	defer release()
	if len(members) == 1 {
		co.solo(members[0], wait)
		return
	}
	co.executeWave(lay, members, wait)
}

// solo runs a group that stayed a group of one — the idle-server case,
// where the leader's acquire returned before anyone could join —
// through the same single-call compute path as a non-coalescable
// request. A wave of one would pay the batch bookkeeping (wave
// context, per-item plumbing, workspace setup) for nothing; this keeps
// the batched path strictly free when there is nothing to batch.
func (co *coalescer) solo(m *cmember, queueWait time.Duration) {
	s := co.s
	co.attempts.Inc()
	co.waveSize.Observe(1)
	if t := co.attempts.Value(); t > 0 {
		co.rate.Set(100 * co.coalesced.Value() / t)
	}
	// Same context geometry as the single-call handler: client
	// disconnect + drain + min(client deadline, server cap).
	ctx, cancel := context.WithCancelCause(m.rctx)
	defer cancel(nil)
	stopLink := context.AfterFunc(s.drainCtx, func() { cancel(ErrDraining) })
	defer stopLink()
	tctx, tcancel := context.WithTimeout(ctx, s.deadline(m.req))
	defer tcancel()
	m.rs.phaseAt(obs.PhaseQueue, obs.KindQueueWait, time.Now().Add(-queueWait), queueWait)
	resp, err := s.compute(tctx, m.req, m.budget, m.rs)
	if err != nil {
		co.settle(m, nil, err)
		return
	}
	resp.QueueNS = queueWait.Nanoseconds()
	co.settle(m, resp, nil)
}

// settle delivers one member's outcome exactly once.
func (co *coalescer) settle(m *cmember, resp *Response, err error) {
	select {
	case <-m.done:
		return // already settled
	default:
	}
	m.resp, m.err = resp, err
	close(m.done)
}

// executeWave materializes every member's operands, applies each
// member's own deadline, and runs ONE batched engine call against the
// shared cached plan. Wave-level failures (plan build, admission
// rejection inside the engine, drain) settle every member with the same
// typed cause; per-member failures (expiry, disconnect, a fault
// injected into one member's materialization) settle only that member.
func (co *coalescer) executeWave(lay recmat.Layout, members []*cmember, queueWait time.Duration) {
	req0 := members[0].req

	// Attribution: each member's gather phase runs from its join to the
	// wave's start. For a wave member the admission wait IS the batching
	// window (the leader queued on everyone's behalf), so gather subsumes
	// it and PhaseQueue stays 0 — phases remain disjoint. Response.QueueNS
	// still reports the shared admission wait below.
	waveStart := time.Now()
	for _, m := range members {
		m.rs.phaseAt(obs.PhaseGather, obs.KindGather, m.joined, waveStart.Sub(m.joined))
	}

	// The wave's own lifetime: detached from any single member (a
	// leader whose client disconnects must not abort its siblings),
	// cancelled only by drain.
	wctx, wcancel := context.WithCancelCause(context.Background())
	defer wcancel(nil)
	stopLink := context.AfterFunc(co.s.drainCtx, func() { wcancel(ErrDraining) })
	defer stopLink()

	alg, err := resolveReqAlg(req0, lay)
	if err != nil {
		co.settleAll(members, err)
		return
	}
	// One engine call, one MemBudget: the most constrained member's, so
	// no member's quota is overrun by the wave it happened to join.
	budget := members[0].budget
	for _, m := range members[1:] {
		if m.budget < budget {
			budget = m.budget
		}
	}
	opts := &recmat.Options{Layout: lay, Algorithm: alg, MemBudget: budget}

	ent, err := co.s.acquirePlan(req0, lay, alg, opts)
	if err != nil {
		co.settleAll(members, err)
		return
	}
	defer co.s.plans.release(ent)

	// Per-member materialization under its own recover: one member's
	// panic (the serve.compute fault hook fires here) settles that
	// member alone and keeps it out of the wave.
	items := make([]recmat.PrepackedGEMMBatchItem, 0, len(members))
	idx := make([]int, 0, len(members))
	Cs := make([]*recmat.Matrix, len(members))
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			// Poisoned buffers go to the GC, not the pool; the leader's
			// recover settles the members.
			panic(r)
		}
		// Every member is settled (responses hold copies) before this
		// runs; the wave's operands can be recycled.
		for j := range items {
			freeMat(items[j].B)
		}
		for _, C := range Cs {
			freeMat(C)
		}
	}()
	for i, m := range members {
		func() {
			defer func() {
				if r := recover(); r != nil {
					co.settle(m, nil, fmt.Errorf("serve: compute panicked: %v", r))
				}
			}()
			faultinject.Point("serve.compute")
			B := seededMat(m.req.K, m.req.N, m.req.BSeed)
			var C *recmat.Matrix
			if m.req.CSeed != 0 {
				C = seededMat(m.req.M, m.req.N, m.req.CSeed)
			} else {
				C = zeroMat(m.req.M, m.req.N)
			}
			ictx, icancel := context.WithTimeout(m.rctx, co.s.deadline(m.req))
			cancels = append(cancels, icancel)
			Cs[i] = C
			items = append(items, recmat.PrepackedGEMMBatchItem{
				Alpha: m.req.alpha(), Beta: m.req.Beta, B: B, C: C, Ctx: ictx,
				TraceID: m.trace(),
			})
			idx = append(idx, i)
		}()
	}

	size := len(members)
	co.attempts.Add(int64(size))
	if size > 1 {
		co.coalesced.Add(int64(size))
	}
	co.waveSize.Observe(float64(size))
	if t := co.attempts.Value(); t > 0 {
		co.rate.Set(100 * co.coalesced.Value() / t)
	}

	if len(items) > 0 {
		tCall := time.Now()
		bs, errs, werr := co.s.eng.GEMMPrepackedBatch(wctx, ent.Plan(), items, opts)
		wall := time.Since(tCall)
		if werr != nil {
			for _, i := range idx {
				co.settle(members[i], nil, werr)
			}
		} else {
			// Wave times are shared; report each member's share so
			// summed client-side compute time still means something.
			per := int64(1)
			if bs.Completed > 0 {
				per = int64(bs.Completed)
			}
			for j, i := range idx {
				m := members[i]
				if errs[j] != nil {
					co.settle(m, nil, errs[j])
					continue
				}
				// The ledger records the SHARED wave compute wall (every
				// member the same value — the wave is indivisible evidence),
				// unlike the response's amortized per-member share below.
				m.rs.phase(obs.PhaseCompute, bs.Compute)
				if m.rs != nil && m.rs.tr != nil {
					m.rs.tr.LaneSpan(m.rs.lane, obs.KindCompute, tCall, wall, 0)
				}
				resp := co.s.respond(m.req, &bs.Stats, Cs[i])
				resp.PlanCached, resp.Coalesced, resp.BatchSize = true, size > 1, size
				resp.QueueNS = queueWait.Nanoseconds()
				resp.ComputeNS, resp.TotalNS = resp.ComputeNS/per, resp.TotalNS/per
				co.settle(m, resp, nil)
			}
		}
	}
	// Members that never made it into the wave (materialization panic)
	// were settled in place; this is the backstop for any stragglers.
	co.settleAll(members, fmt.Errorf("serve: coalesced member never executed"))
}

// settleAll settles every not-yet-settled member with err.
func (co *coalescer) settleAll(members []*cmember, err error) {
	for _, m := range members {
		co.settle(m, nil, err)
	}
}
