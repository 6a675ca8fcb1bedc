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

// This file is the request path past admission control: every request
// is a member of a group, and a group is one admission slot and one
// engine call. Requests that parse to the same plan-cache key (same
// tenant, named operand, shape, seed, layout, partner bucket and
// resolved algorithm) and arrive while a group under that key waits for
// its slot join it — the batching window is the admission queue itself,
// so an idle server, whose leader's acquire returns at once, groups
// nothing and pays nothing. A request without a key is a group of one.
// What the group's size picks is the engine call and nothing else: the
// member's context, its operands, its ledger and its response are made
// in one place each.
//
// Deadlines and cancellation stay per member: each carries its own
// context (client disconnect + drain + its deadline) into the call, so
// an expired member is dropped from the wave, not the wave from the
// member.

// member is one request on its way through the daemon: what parse read
// off its spec, what the handler reserved for it, the context and
// operands run gives it, and the slot its handler blocks on until the
// group settles it with a response or a typed error.
type member struct {
	req *Request
	lay recmat.Layout
	alg recmat.Algorithm // resolved against the shape, never Auto
	// key is the plan-cache key of a named A in a recursive layout with
	// the cache on — also the key of the group the member may join — and
	// empty for a request that multiplies its own A.
	key    string
	budget int64 // the tenant's unused quota, the engine call's MemBudget
	rctx   context.Context
	rs     *reqState
	joined time.Time

	ctx     context.Context
	cancel  func()
	A, B, C *recmat.Matrix

	resp *Response
	err  error
	done chan struct{}
}

// group is the members gathered under one key while the first of them,
// the leader, waits for an admission slot.
type group struct {
	key     string // empty: a group of one that is in no map
	members []*member
}

// coalescer tracks the open groups and the coalescing metrics.
type coalescer struct {
	s        *Server
	maxBatch int

	mu     sync.Mutex
	groups map[string]*group

	// attempts counts every keyed request, coalesced those whose group
	// had at least two members; rate publishes 100·coalesced/attempts —
	// the share of plan-cached requests that amortized an engine call.
	coalesced *obs.Counter
	attempts  *obs.Counter
	rate      *obs.Gauge
	waveSize  *obs.Histogram
}

func newCoalescer(s *Server, maxBatch int) *coalescer {
	return &coalescer{
		s:         s,
		maxBatch:  maxBatch,
		groups:    map[string]*group{},
		coalesced: s.reg.Counter("requests_coalesced"),
		attempts:  s.reg.Counter("coalesce_attempts"),
		rate:      s.reg.Gauge("coalesce_rate_pct"),
		waveSize:  s.reg.Histogram("coalesce_batch_size", obs.BatchBuckets),
	}
}

// do runs one request and blocks until its group settles it. It joins
// the open group under its key, or leads a new one. A group that
// nothing can join — no key, or coalescing off — waits for its slot on
// its own request's context, so a client that disconnects while queued
// frees its queue position without ever taking a slot; a group in the
// map waits on the drain context, because its leader's client must not
// strand the joiners.
func (co *coalescer) do(m *member) (*Response, error) {
	m.joined = time.Now()
	g, wait := &group{members: []*member{m}}, m.rctx
	if m.key != "" && co.maxBatch >= 2 {
		co.mu.Lock()
		if open := co.groups[m.key]; open != nil && len(open.members) < co.maxBatch {
			open.members = append(open.members, m)
			co.mu.Unlock()
			<-m.done
			return m.resp, m.err
		}
		// No open group, or a full one: a full group stays in flight on
		// its own and the map slot passes to this one, so the old
		// leader's delete-if-still-mine is a no-op.
		g.key, wait = m.key, co.s.drainCtx
		co.groups[g.key] = g
		co.mu.Unlock()
	}
	co.lead(g, wait)
	<-m.done
	return m.resp, m.err
}

// closed takes g out of the map and returns its members; nothing joins
// it afterwards.
func (co *coalescer) closed(g *group) []*member {
	if g.key == "" {
		return g.members
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.groups[g.key] == g {
		delete(co.groups, g.key)
	}
	return g.members
}

// lead is the leader's side: wait for an execution slot (the batching
// window), close the group and run it. Every member is settled on every
// path — a shed or draining group with the one typed cause, and a panic
// anywhere in the leader's frame (the engine converts its own, but the
// serving code and its fault hooks can panic too) with a typed internal
// error, never escaping into net/http or stranding a joiner.
func (co *coalescer) lead(g *group, wait context.Context) {
	defer func() {
		if r := recover(); r != nil {
			co.fail(co.closed(g), fmt.Errorf("serve: request group panicked: %v", r))
		}
	}()
	release, queued, err := co.s.adm.acquire(wait)
	members := co.closed(g)
	if err != nil {
		co.fail(members, err)
		return
	}
	defer release()
	co.run(members, queued)
}

// fail settles every member not yet settled with the one typed cause.
func (co *coalescer) fail(members []*member, err error) {
	for _, m := range members {
		co.settle(m, nil, err)
	}
}

// settle delivers one member's outcome exactly once.
func (co *coalescer) settle(m *member, resp *Response, err error) {
	select {
	case <-m.done:
		return // already settled
	default:
	}
	m.resp, m.err = resp, err
	close(m.done)
}

// materialise gives a member what the engine call needs of it: its
// context — client disconnect + drain + min(client deadline, server
// cap), the one context the engine polls — and its operands, seeded
// into pooled buffers. It runs under its own recover: one member's
// panic (the serve.compute fault point fires here) settles that member
// alone and keeps it out of the call.
func (co *coalescer) materialise(m *member) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			co.settle(m, nil, fmt.Errorf("serve: compute panicked: %v", r))
		}
	}()
	faultinject.Point("serve.compute")
	t0, req := time.Now(), m.req
	if m.key == "" {
		m.A = seededMat(req.M, req.K, req.ASeed)
	}
	m.B = seededMat(req.K, req.N, req.BSeed)
	if req.CSeed != 0 {
		m.C = seededMat(req.M, req.N, req.CSeed)
	} else {
		m.C = zeroMat(req.M, req.N)
	}
	ctx, cancel := context.WithCancelCause(m.rctx)
	stopLink := context.AfterFunc(co.s.drainCtx, func() { cancel(ErrDraining) })
	ctx, tcancel := context.WithTimeout(ctx, co.s.deadline(req))
	m.ctx, m.cancel = ctx, func() { tcancel(); stopLink(); cancel(nil) }
	m.rs.phase(obs.PhaseSeed, time.Since(t0))
	return true
}

// run executes a closed group inside its admission slot: every member
// is materialised, the group makes one engine call, and every member is
// settled from that call's report. Failures of the call as a whole
// (plan build, admission inside the engine, drain) settle every member
// with the same typed cause; a member's own (expiry, disconnect, a
// fault in its materialisation) settle it alone.
func (co *coalescer) run(members []*member, queued time.Duration) {
	s, start, size := co.s, time.Now(), len(members)
	keyed := members[0].key != ""

	// A group of one waited in the admission queue. For the members of a
	// wave that wait was the batching window — the leader queued on
	// everyone's behalf — so each one's gather, from its join to here,
	// subsumes it and the phases stay disjoint.
	for _, m := range members {
		p, k, since := obs.PhaseQueue, obs.KindQueueWait, start.Add(-queued)
		if size > 1 {
			p, k, since = obs.PhaseGather, obs.KindGather, m.joined
		}
		m.rs.phaseAt(p, k, since, start.Sub(since))
	}
	if keyed {
		co.attempts.Add(int64(size))
		if size > 1 {
			co.coalesced.Add(int64(size))
		}
		co.waveSize.Observe(float64(size))
		co.rate.Set(100 * co.coalesced.Value() / co.attempts.Value())
	}

	live := make([]*member, 0, size)
	defer func() {
		for _, m := range live {
			m.cancel()
		}
		if r := recover(); r != nil {
			// A panic may leave operand buffers in an unknown state of
			// sharing: poisoned buffers go to the GC, not the pool, and
			// the leader's recover settles the members.
			panic(r)
		}
		// Every member is settled by now and its response holds copies.
		for _, m := range live {
			freeMat(m.A)
			freeMat(m.B)
			freeMat(m.C)
		}
	}()
	for _, m := range members {
		if co.materialise(m) {
			live = append(live, m)
		}
	}
	if len(live) == 0 {
		return
	}

	// One engine call, one MemBudget: the most constrained member's, so
	// no member's quota is overrun by the group it happened to join. The
	// engine stamps TraceID on a single call's trace lane, joining the
	// request lane to the driver spans it produced; a wave's items carry
	// their own.
	m0 := live[0]
	opts := &recmat.Options{Layout: m0.lay, Algorithm: m0.alg, MemBudget: m0.budget, TraceID: m0.rs.trace}
	for _, m := range live[1:] {
		opts.MemBudget = min(opts.MemBudget, m.budget)
	}

	// The engine call is read off the group: a wave against the shared
	// plan, one product against it, or one product that packs its own A
	// — a group of one pays none of the batch bookkeeping. rep is the
	// report of the call that produced every live member's C; pack is
	// the conversion done for it outside that report, building the plan
	// on a miss and packing a single product's B; per is how many
	// members the report's times are spread over on the wire.
	var (
		ent  *planEntry
		rep  *recmat.Report
		pack time.Duration
		per  = int64(1)
		errs []error // by live member, of a wave
		err  error   // of the call as a whole
	)
	call := time.Now()
	if keyed {
		if ent, err = s.acquirePlan(m0, opts); err != nil {
			co.fail(live, err)
			return
		}
		defer s.plans.release(ent)
		pack = time.Since(call)
	}
	switch {
	case len(live) > 1:
		items := make([]recmat.PrepackedGEMMBatchItem, len(live))
		for i, m := range live {
			items[i] = recmat.PrepackedGEMMBatchItem{
				Alpha: m.req.alpha(), Beta: m.req.Beta, B: m.B, C: m.C, Ctx: m.ctx, TraceID: m.rs.trace,
			}
		}
		// The wave's own lifetime is detached from any one member (a
		// leader whose client disconnects must not abort its siblings)
		// and ends only with drain.
		var bs *recmat.BatchReport
		if bs, errs, err = s.eng.GEMMPrepackedBatch(s.drainCtx, ent.Plan(), items, opts); err == nil {
			rep, per = &bs.Stats, int64(max(bs.Completed, 1))
		}
	case keyed:
		var pb *recmat.Plan
		pb, err = s.eng.PrepackConforming(m0.B, false, opts, ent.Plan())
		pack = time.Since(call)
		if err == nil {
			rep, err = s.eng.GEMMPrepackedOpts(m0.ctx, opts, m0.req.alpha(), ent.Plan(), pb, m0.req.Beta, m0.C)
			pb.Release()
		}
	default:
		rep, err = s.eng.DGEMMContext(m0.ctx, false, false, m0.req.alpha(), m0.A, m0.B, m0.req.Beta, m0.C, opts)
	}
	wall := time.Since(call)
	if err != nil {
		co.fail(live, err)
		return
	}

	// One place stamps a ledger and settles a member. Pack, compute and
	// unpack are the call's walls — a wave's are shared by its members,
	// the wave being indivisible evidence, unlike the response's
	// per-member share, which keeps summed client-side compute
	// meaningful — and the lane span covers the whole call, so a trace
	// shows where the request's wall went even when conversion is free.
	for i, m := range live {
		if errs != nil && errs[i] != nil {
			co.settle(m, nil, errs[i])
			continue
		}
		m.rs.phase(obs.PhasePack, pack+rep.ConvertIn)
		m.rs.phase(obs.PhaseCompute, rep.Compute)
		m.rs.phase(obs.PhaseUnpack, rep.ConvertOut)
		if m.rs.tr != nil {
			m.rs.tr.LaneSpan(m.rs.lane, obs.KindCompute, call, wall, 0)
		}
		t0 := time.Now()
		resp := s.respond(m.req, rep, m.C)
		resp.PlanCached, resp.Coalesced = keyed, size > 1
		if keyed {
			resp.BatchSize = size
		}
		resp.QueueNS = queued.Nanoseconds()
		resp.ComputeNS, resp.TotalNS = resp.ComputeNS/per, resp.TotalNS/per
		m.rs.phase(obs.PhaseRespond, time.Since(t0))
		co.settle(m, resp, nil)
	}
}
