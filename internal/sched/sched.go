// Package sched is the parallel runtime substrate standing in for the
// Cilk 5.2.1 system the paper used (Section 2 and the "critique of Cilk"
// in Section 5). It provides nested fork–join parallelism over a fixed
// pool of workers, each with its own work-stealing deque, plus the
// work/span ("critical path") accounting that Cilk's instrumentation
// provided and that the paper used to estimate available parallelism
// (≈40 processors' worth for the standard algorithm at n=1000, ≈23 for
// the fast algorithms).
//
// The scheduling discipline is help-first: a frame that reaches its sync
// point does not block — it executes tasks from its own deque and then
// steals from random victims until its children have completed. Steals
// take the oldest task (the largest unexplored subtree), spawns push the
// newest, matching the Cilk heuristic that stolen work is coarse.
//
// Like Cilk, the runtime propagates exceptions (panics) from spawned
// tasks to their sync point, and the same code runs unchanged on one
// worker for serial measurements. Unlike the original Cilk stand-in,
// failures are part of the contract: every panic recovered in a task is
// wrapped (with the worker-side stack) into a TaskError that Run
// returns as an ordinary error, and RunCtx supports cooperative
// cancellation — workers check the run's cancellation state between
// tasks and at every spawn point, so a cancelled run drains within a
// bounded latency instead of finishing its full task graph.
//
// # Parking
//
// Nothing here waits on a timer. A worker whose top-level loop or sync
// loop has found nothing for its spin budget parks (worker.park): it
// adds itself to Pool.parked, sweeps once more — own deque, every other
// deque, the injection queue — and blocks on the pool's wake channel
// and the injection queue; the top-level loop also on Pool.done, a sync
// loop also on its worker's joined channel, which join.finish signals
// when the last child retires. worker.push appends under the deque
// lock, then loads parked, and when it is non-zero hands the wake
// channel one token without blocking.
//
// No wake-up is lost. Atomics are sequentially consistent, so of a
// parker's parked.Add(1) and a pusher's parked.Load() one is first. If
// the Load is, then append → Load → Add → sweep: the sweep, which visits
// every other deque exactly once under the lock the append held, takes
// the task or leaves it to a worker that is awake. If the Add is, the
// pusher reads parked != 0 and sends; the channel has a slot per worker,
// so a send fails only when as many tokens wait as workers could be
// parked. With join.sleeper for parked and join.pending for the deque
// the same argument covers a sync loop and its join's last child. A
// token may outlive its use (the parker found the task itself, or two
// pushes woke one worker): whoever takes it sweeps, finds nothing and
// parks again, at most Workers() times, and an idle pool falls silent.
//
// A parked sync loop still takes root tasks: a frame waiting for a long
// child is a worker like any other, and a pool whose syncing workers
// refused roots would serve concurrent callers with fewer workers than
// it has. It does not watch Pool.done: the children it waits for are
// running on other workers and retire through join.finish whatever
// happens to the pool — on Close, cancellation and panic alike.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// Pool is a fixed set of worker goroutines executing fork–join task
// graphs. A Pool is created with NewPool, used through Run, and released
// with Close.
type Pool struct {
	workers []*worker
	inject  chan *task
	done    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
	// wake carries a token per spawn that found a worker parked (one
	// slot per worker); parked counts the workers inside park.
	wake   chan struct{}
	parked atomic.Int32

	// Runtime counters (the analogue of the Cilk instrumentation the
	// paper's critique discusses). Updated with atomics; read with
	// Stats.
	spawns atomic.Int64 // tasks pushed to a deque
	steals atomic.Int64 // tasks taken from another worker's deque
	inline atomic.Int64 // first-child frames run inline at the spawn site
	parks  atomic.Int64 // times a worker blocked in park
	wakes  atomic.Int64 // wake tokens handed over by push
}

// PoolStats is a snapshot of the pool's scheduling counters.
type PoolStats struct {
	// Spawns counts tasks made available for stealing (deque pushes).
	Spawns int64
	// Steals counts tasks executed by a worker other than the one that
	// spawned them. Steals/Spawns is the migration rate; Cilk's
	// work-first principle predicts it stays small when parallelism
	// greatly exceeds the worker count.
	Steals int64
	// Inline counts frames executed directly at their spawn site.
	Inline int64
	// Parks counts the times a worker out of work blocked until an
	// event: a spawn, a root task, the end of its join, or Close.
	Parks int64
	// Wakes counts spawns that handed a parked worker a wake token;
	// the other parks were ended by a root or a join. An idle pool
	// advances neither.
	Wakes int64
}

// Stats returns a snapshot of the scheduling counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Spawns: p.spawns.Load(), Steals: p.steals.Load(), Inline: p.inline.Load(),
		Parks: p.parks.Load(), Wakes: p.wakes.Load()}
}

// ResetStats zeroes the scheduling counters.
func (p *Pool) ResetStats() {
	p.spawns.Store(0)
	p.steals.Store(0)
	p.inline.Store(0)
	p.parks.Store(0)
	p.wakes.Store(0)
}

// task is one spawned unit of work. ctx is bound to the executing worker
// at run time. Tasks are recycled through taskPool: a fine-grained run
// spawns one task per quadrant product, and without recycling the task
// headers alone dominate the scheduler's allocation profile (see
// BenchmarkParallelSpawn).
type task struct {
	fn   func(*Ctx)
	join *join
	ctx  *Ctx
}

var taskPool = sync.Pool{New: func() any { return new(task) }}

// newTask draws a recycled task from the pool. The task is returned to
// the pool by the worker that runs it, so callers must not retain it
// past the hand-off to a deque or the inject channel.
func newTask(fn func(*Ctx), j *join, ctx *Ctx) *task {
	t := taskPool.Get().(*task)
	t.fn, t.join, t.ctx = fn, j, ctx
	return t
}

// join is the synchronization point of one Parallel call or one root
// Run. A root join carries a completion channel (donec) closed by the
// worker that retires the last child, so the caller blocks on a channel
// instead of burning a busy-polling waiter goroutine; Parallel joins
// leave donec nil and sync through the help-first loop, which is itself
// a worker: when that loop parks it names its worker in sleeper, and
// the last child signals that worker's joined channel.
type join struct {
	pending atomic.Int64
	donec   chan struct{}
	sleeper atomic.Pointer[worker]
	panicMu sync.Mutex
	panics  []*PanicError
}

// recordPanic files one recovered panic. A re-raised TaskError (the
// aggregate a Parallel sync point throws upward) is flattened so every
// leaf panic keeps its original worker-side stack and sibling panics
// are never collapsed to the first one.
func (j *join) recordPanic(v any, stack []byte) {
	j.panicMu.Lock()
	switch e := v.(type) {
	case *TaskError:
		j.panics = append(j.panics, e.Panics...)
	case *PanicError:
		j.panics = append(j.panics, e)
	default:
		j.panics = append(j.panics, &PanicError{Value: v, Stack: stack})
	}
	j.panicMu.Unlock()
}

// finish retires one child; the last one out closes the completion
// channel (root joins) or wakes the sync loop parked on the join. A
// full slot is a signal already waiting for that worker, which re-reads
// pending whenever it wakes.
func (j *join) finish() {
	if j.pending.Add(-1) != 0 {
		return
	}
	if j.donec != nil {
		close(j.donec)
	} else if w := j.sleeper.Load(); w != nil {
		select {
		case w.joined <- struct{}{}:
		default:
		}
	}
}

// taskErr converts the recorded panics into an error, or nil. Only call
// after pending has reached zero (no more writers).
func (j *join) taskErr() error {
	if len(j.panics) == 0 {
		return nil
	}
	return &TaskError{Panics: j.panics}
}

// runState is shared by every frame of one Run/RunCtx invocation. It is
// the cancellation generation of that run: workers consult it before
// executing each task and algorithms poll it at recursion and spawn
// points through Ctx.Cancelled.
type runState struct {
	cancelled atomic.Bool
	// done is ctx.Done() of the run's context (nil for Background), so
	// workers observe cancellation without waiting for the Run caller to
	// notice it first.
	done <-chan struct{}
	// pool backs the pool-closed check: closing the pool cancels every
	// in-flight run, which is what lets Close be called while runs are
	// still executing (the daemon drain path) without wedging anyone.
	pool *Pool
}

func (rs *runState) isCancelled() bool {
	if rs == nil {
		return false
	}
	if rs.cancelled.Load() {
		return true
	}
	if rs.pool != nil && rs.pool.closed.Load() {
		rs.cancelled.Store(true)
		return true
	}
	if rs.done != nil {
		select {
		case <-rs.done:
			rs.cancelled.Store(true)
			return true
		default:
		}
	}
	return false
}

type worker struct {
	pool *Pool
	id   int
	mu   sync.Mutex
	dq   []*task // owner pushes/pops at the tail; thieves steal the head
	seed uint64
	// joined wakes this worker's parked sync loop (join.finish).
	joined chan struct{}
	// slot is worker-local storage handed out through Ctx.WorkerSlot;
	// only the owning worker touches it, so no locking.
	slot any
	// busy accumulates the wall time this worker spent executing
	// top-level task frames — the achieved-parallelism counterpart of
	// the theoretical Work/Span accounting. Written by the owner, read
	// by Pool.BusyNanos, hence atomic.
	busy atomic.Int64
	// depth counts nested run() frames on this worker's goroutine
	// (help-first sync loops and inline children re-enter run inside a
	// suspended frame). Only the owning goroutine touches it; busy time
	// is charged only at depth 1, where the interval already covers
	// everything executed on top of it — charging nested frames too
	// would double-count.
	depth int
}

// Ctx is the execution context of one task frame. It carries the
// work/span accumulators of the critical-path instrumentation; the
// algorithms report their leaf work through Account, and Parallel folds
// children's totals into the parent (sum for work, max for span).
type Ctx struct {
	w    *worker
	pool *Pool
	rs   *runState
	// Work is the total work (in caller-chosen units, e.g. flops)
	// accounted in this frame and its completed children.
	Work float64
	// Span is the critical-path length of this frame in the same units.
	Span float64
	// slot backs WorkerSlot for a Ctx that is not bound to a worker.
	slot any
}

// NewPool creates a pool with the given number of workers. Workers <= 0
// selects runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		inject: make(chan *task, 64),
		done:   make(chan struct{}),
		wake:   make(chan struct{}, workers),
	}
	p.workers = make([]*worker, workers)
	for i := range p.workers {
		p.workers[i] = &worker{pool: p, id: i, seed: uint64(i)*0x9E3779B97F4A7C15 + 1,
			joined: make(chan struct{}, 1)}
	}
	p.wg.Add(workers)
	for _, w := range p.workers {
		// Label each worker goroutine so CPU profiles and runtime
		// traces attribute samples to "recmat_worker: <id>" instead of
		// an anonymous goroutine soup. The label is applied once per
		// worker lifetime — zero per-task cost.
		go func(w *worker) {
			pprof.Do(context.Background(),
				pprof.Labels("recmat_worker", strconv.Itoa(w.id)),
				func(context.Context) { w.loop() })
		}(w)
	}
	return p
}

// BusyNanos returns the cumulative wall time, in nanoseconds, the
// pool's workers have spent executing task frames. The difference of
// two readings divided by (workers × elapsed wall time) is the pool's
// achieved utilization over that window — the measured complement of
// the Work/Span parallelism estimate. Time is charged when a top-level
// frame retires, so a reading taken mid-task does not include that
// task's partial time.
func (p *Pool) BusyNanos() int64 {
	var n int64
	for _, w := range p.workers {
		n += w.busy.Load()
	}
	return n
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return len(p.workers) }

// Close shuts the pool down. It is idempotent and safe to call
// concurrently: every caller blocks until the workers have exited.
// Close may also be called while runs are in flight (a serving
// process's drain path closes the pool with requests still executing):
// closing cancels every in-flight run — workers retire the remaining
// tasks without executing them, exactly as a cancelled context would —
// and those runs' Run/RunCtx calls return an error wrapping
// ErrPoolClosed instead of wedging.
func (p *Pool) Close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.done)
	}
	p.wg.Wait()
	// Root tasks parked in the injection queue after the workers exited
	// would strand their callers on the completion channel; retire them.
	p.drainInject()
}

// drainInject retires any tasks parked in the injection queue without
// executing them. Only called on the close path — workers at exit,
// Close after the workers are gone, and RunCtx callers observing
// closure — when every run on this pool already reports cancelled, so
// retiring (not running) is the correct disposal.
func (p *Pool) drainInject() {
	for {
		select {
		case t := <-p.inject:
			j := t.join
			t.fn, t.join, t.ctx = nil, nil, nil
			taskPool.Put(t)
			j.finish()
		default:
			return
		}
	}
}

// Closed reports whether the pool has been closed.
func (p *Pool) Closed() bool { return p.closed.Load() }

// Run executes fn on the pool and blocks until it (and everything it
// spawned) completes. It returns the accounted work and span of the
// run. Panics in any task are recovered on the worker, aggregated, and
// returned as a *TaskError; a closed pool yields ErrPoolClosed. Run
// never panics and never re-raises task panics.
func (p *Pool) Run(fn func(*Ctx)) (work, span float64, err error) {
	return p.RunCtx(context.Background(), fn)
}

// RunCtx is Run with cooperative cancellation. When ctx is cancelled,
// the run's cancellation state flips: queued tasks of this run are
// retired without executing, spawn points stop spawning, and
// instrumented algorithms observe Ctx.Cancelled at their recursion
// points — so RunCtx returns within a bounded latency (roughly one leaf
// task) instead of finishing the full task graph. The returned error
// wraps ctx's cause (errors.Is(err, ctx.Err()) holds) joined with any
// panics that occurred before the abort. Work and span reflect only
// what actually executed.
//
// The caller blocks on the root join's completion channel; no waiter
// goroutine is spawned, so nothing outlives a panicking or cancelled
// run.
func (p *Pool) RunCtx(ctx context.Context, fn func(*Ctx)) (work, span float64, err error) {
	if p.closed.Load() {
		return 0, 0, ErrPoolClosed
	}
	if cerr := ctx.Err(); cerr != nil {
		return 0, 0, fmt.Errorf("sched: run not started: %w", context.Cause(ctx))
	}
	rs := &runState{done: ctx.Done(), pool: p}
	j := &join{donec: make(chan struct{})}
	j.pending.Store(1)
	c := &Ctx{pool: p, rs: rs}
	t := newTask(fn, j, c)
	select {
	case p.inject <- t:
	case <-p.done:
		t.fn, t.join, t.ctx = nil, nil, nil
		taskPool.Put(t)
		return 0, 0, ErrPoolClosed
	case <-ctx.Done():
		t.fn, t.join, t.ctx = nil, nil, nil
		taskPool.Put(t)
		return 0, 0, fmt.Errorf("sched: run not started: %w", context.Cause(ctx))
	}
	select {
	case <-j.donec:
	case <-ctx.Done():
		rs.cancelled.Store(true)
		// Cooperative abort: workers retire the remaining tasks of this
		// run without executing them, so this drains quickly.
		<-j.donec
	case <-p.done:
		// The pool is closing under this run. Workers drain their own
		// deques on the way out; drain the injection queue here too in
		// case our root task never left it (Close's own drain may
		// already have run by the time the task was injected).
		rs.cancelled.Store(true)
		p.drainInject()
		<-j.donec
	}
	work, span = c.Work, c.Span
	terr := j.taskErr()
	if rs.cancelled.Load() {
		cause := context.Cause(ctx)
		if cause == nil {
			// Not the context: the pool was closed out from under the
			// run (the drain path). Type the abort accordingly.
			return work, span, errors.Join(fmt.Errorf("sched: run aborted: %w", ErrPoolClosed), terr)
		}
		cancelErr := fmt.Errorf("sched: run cancelled: %w", cause)
		return work, span, errors.Join(cancelErr, terr)
	}
	return work, span, terr
}

// push adds a task to the owner's end of the deque and, when a worker
// is parked, wakes one: a busy pool pays the load of parked and no more.
func (w *worker) push(t *task) {
	w.mu.Lock()
	w.dq = append(w.dq, t)
	w.mu.Unlock()
	p := w.pool
	p.spawns.Add(1)
	if p.parked.Load() != 0 {
		select {
		case p.wake <- struct{}{}:
			p.wakes.Add(1)
		default:
		}
	}
	if tr := obs.Cur(); tr != nil {
		tr.Instant(w.id, obs.KindSpawn, 0)
	}
}

// pop removes the most recently pushed task (LIFO), or nil.
func (w *worker) pop() *task {
	w.mu.Lock()
	n := len(w.dq)
	if n == 0 {
		w.mu.Unlock()
		return nil
	}
	t := w.dq[n-1]
	w.dq[n-1] = nil
	w.dq = w.dq[:n-1]
	w.mu.Unlock()
	return t
}

// stealFrom removes the oldest task (FIFO) from v's deque, or nil.
func (w *worker) stealFrom(v *worker) *task {
	v.mu.Lock()
	if len(v.dq) == 0 {
		v.mu.Unlock()
		return nil
	}
	t := v.dq[0]
	v.dq[0] = nil
	v.dq = v.dq[1:]
	v.mu.Unlock()
	return t
}

// findTask looks for runnable work: own deque first, then one steal
// sweep, then the injection queue. The sweep visits every other worker
// exactly once, from a random start (a xorshift step over the worker's
// private seed): it is also a parker's last look before it blocks,
// where a deque left out is a lost wake-up.
func (w *worker) findTask() *task {
	if t := w.pop(); t != nil {
		return t
	}
	w.seed ^= w.seed << 13
	w.seed ^= w.seed >> 7
	w.seed ^= w.seed << 17
	ws := w.pool.workers
	if others := len(ws) - 1; others > 0 {
		start := int(w.seed % uint64(others))
		for i := 0; i < others; i++ {
			v := ws[(w.id+1+(start+i)%others)%len(ws)]
			if t := w.stealFrom(v); t != nil {
				w.pool.steals.Add(1)
				if tr := obs.Cur(); tr != nil {
					tr.Instant(w.id, obs.KindSteal, int64(v.id))
				}
				return t
			}
		}
	}
	select {
	case t := <-w.pool.inject:
		return t
	default:
		return nil
	}
}

// run executes one task, binding its context to this worker, recording
// panics (with the worker-side stack) into the task's join, and
// signalling completion. Tasks belonging to a cancelled run are retired
// without executing — the between-tasks cancellation check that bounds
// a cancelled run's drain latency. The task header is recycled before
// the join is released: once pending drops the parent may return, but
// the task pointer itself is no longer referenced by anyone (it has
// already left every deque).
func (w *worker) run(t *task) {
	t.ctx.w = w
	j := t.join
	if !t.ctx.rs.isCancelled() {
		// Busy accounting and tracing share the frame's clock reads.
		// Only the owning goroutine touches depth: nested run frames
		// (inline children, help-first sync work) execute inside this
		// one, so charging busy time at depth 1 alone covers them.
		w.depth++
		tr := obs.Cur()
		timed := w.depth == 1 || tr != nil
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					j.recordPanic(r, debug.Stack())
				}
			}()
			faultinject.Point("sched.task")
			t.fn(t.ctx)
		}()
		if timed {
			d := time.Since(t0)
			if w.depth == 1 {
				w.busy.Add(int64(d))
			}
			if tr != nil {
				k := obs.KindTask
				if w.depth > 1 {
					k = obs.KindNested
				}
				tr.Span(w.id, k, t0, d, 0)
			}
		}
		w.depth--
	}
	t.fn, t.join, t.ctx = nil, nil, nil
	taskPool.Put(t)
	j.finish()
}

// park blocks a worker that has spun out its budget until an event
// (package comment, "Parking"). j is the join a sync loop waits on, nil
// for the top-level loop. It returns the task its last sweep found or
// the root that ended the wait; nil means look again.
func (w *worker) park(j *join) *task {
	p := w.pool
	p.parked.Add(1)
	defer p.parked.Add(-1)
	if t := w.findTask(); t != nil {
		return t
	}
	var joined, done <-chan struct{}
	if j == nil {
		done = p.done
	} else {
		j.sleeper.Store(w)
		if j.pending.Load() == 0 {
			return nil
		}
		joined = w.joined
	}
	p.parks.Add(1)
	tr := obs.Cur()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	var t *task
	select {
	case <-p.wake:
	case t = <-p.inject:
	case <-joined:
	case <-done:
	}
	if tr != nil {
		tr.Span(w.id, obs.KindPark, t0, time.Since(t0), 0)
	}
	return t
}

// loop is the worker main loop: execute available work, park when
// idle, exit when the pool closes. On the way out the worker retires
// whatever is left in its own deque and the injection queue — the pool
// is closed, so every run is cancelled and w.run skips execution — so
// no join is left pending and no Run caller wedges on its completion
// channel.
func (w *worker) loop() {
	defer w.pool.wg.Done()
	idle := 0
	for {
		select {
		case <-w.pool.done:
			w.drainOwn()
			w.pool.drainInject()
			return
		default:
		}
		t := w.findTask()
		if t == nil {
			if idle++; idle < idleThreshold {
				runtime.Gosched()
				continue
			}
			t = w.park(nil)
		}
		if t != nil {
			idle = 0
			w.run(t)
		}
	}
}

// idleThreshold is how many empty findTask rounds move a worker's
// top-level loop from yielding to park; syncIdleThreshold is the same
// crossing for a help-first sync loop.
const (
	idleThreshold     = 64
	syncIdleThreshold = 256
)

// drainOwn retires the worker's remaining queued tasks through the
// ordinary run path, which skips execution because the pool's closure
// has cancelled their runs. Tasks pushed by frames still executing on
// other workers go to those workers' own deques, so per-worker
// self-drain covers everything.
func (w *worker) drainOwn() {
	for {
		t := w.pop()
		if t == nil {
			return
		}
		w.run(t)
	}
}

// WorkerSlot returns a pointer to the executing worker's local storage
// slot. The slot belongs to the worker, not the frame: successive tasks
// on the same worker see the same slot, and no other worker touches it,
// so callers can cache per-worker scratch state (e.g. leaf packing
// buffers) in it without locking. The pointer is only valid while the
// current task is running — don't retain it across a Parallel call,
// which may resume on a different set of stack frames. Outside a worker
// (a Ctx not yet bound to one), a frame-local slot is returned so the
// call is always safe.
func (c *Ctx) WorkerSlot() *any {
	if c.w == nil {
		return &c.slot
	}
	return &c.w.slot
}

// WorkerID returns the executing worker's index in [0, Workers()), or
// -1 for a Ctx not bound to a pool worker. A frame never migrates
// workers — the help-first discipline keeps a suspended frame on the
// goroutine of the worker that started it, which also runs any stolen
// tasks to completion on top of it — so the value is stable for the
// lifetime of one task frame. This is the hand-off the core scratch
// arena uses to give each worker a private LIFO stack of temporaries.
func (c *Ctx) WorkerID() int {
	if c.w == nil {
		return -1
	}
	return c.w.id
}

// Workers returns the size of the pool this frame runs on, or 1 for a
// Ctx not bound to a pool (serial execution).
func (c *Ctx) Workers() int {
	if c.pool == nil {
		return 1
	}
	return len(c.pool.workers)
}

// Account adds w units of serial work to the frame: both the work and
// the span grow, since work inside a frame is sequential.
func (c *Ctx) Account(w float64) {
	c.Work += w
	c.Span += w
}

// Cancelled reports whether the enclosing run has been cancelled. It is
// a cheap poll (one atomic load, plus a non-blocking channel check the
// first time cancellation is observed) intended for algorithms to call
// at every recursion level, which bounds a cancelled run's latency to
// roughly one leaf task. A Ctx outside any run is never cancelled.
func (c *Ctx) Cancelled() bool { return c.rs.isCancelled() }

// Parallel runs the given functions as parallel children of this frame
// and returns when all of them have completed (the spawn/sync idiom of
// Cilk). The first function runs inline on the current worker; the rest
// are pushed onto its deque where idle workers can steal them. If any
// children panicked, Parallel re-raises a single aggregated *TaskError
// after all of them finish; the panic propagates to the enclosing sync
// point, where it is flattened into that join's aggregate, so every
// sibling panic (with its worker-side stack) survives to the root.
// Children's work sums into this frame; the maximum child span extends
// this frame's span.
//
// Parallel is also a spawn-point cancellation check: on a cancelled run
// it returns immediately without spawning or running anything.
func (c *Ctx) Parallel(fns ...func(*Ctx)) {
	if len(fns) == 0 || c.Cancelled() {
		return
	}
	j := &join{}
	j.pending.Store(int64(len(fns)))
	children := make([]*Ctx, len(fns))
	for i := len(fns) - 1; i >= 1; i-- {
		children[i] = &Ctx{pool: c.pool, rs: c.rs}
		c.w.push(newTask(fns[i], j, children[i]))
	}
	// Run the first child inline through the same panic-capturing path.
	children[0] = &Ctx{pool: c.pool, rs: c.rs}
	inline := newTask(fns[0], j, children[0])
	c.pool.inline.Add(1)
	c.w.run(inline)

	// Help-first sync: execute anything runnable until children finish.
	idle := 0
	for j.pending.Load() != 0 {
		t := c.w.findTask()
		if t == nil {
			if idle++; idle < syncIdleThreshold {
				runtime.Gosched()
				continue
			}
			t = c.w.park(j)
		}
		if t != nil {
			idle = 0
			c.w.run(t)
		}
	}

	var maxSpan float64
	for _, ch := range children {
		c.Work += ch.Work
		if ch.Span > maxSpan {
			maxSpan = ch.Span
		}
	}
	c.Span += maxSpan
	if err := j.taskErr(); err != nil {
		panic(err)
	}
}

// Serial runs fn as a child frame without exposing any parallelism; its
// work and span both accumulate into the current frame. It exists so
// that instrumented code can delimit frames uniformly.
func (c *Ctx) Serial(fn func(*Ctx)) {
	child := &Ctx{pool: c.pool, w: c.w, rs: c.rs}
	fn(child)
	c.Work += child.Work
	c.Span += child.Span
}

// Shield runs fn as a child frame that the run's cancellation does not
// reach: the frame gets a cancellation state of its own, so the tasks
// fn spawns are executed, not retired, after the run's context fires.
// It is for a pass that must not be left half-applied (a driver's
// β-scale and epilogue): entered, it completes. Closing the pool still
// ends it — a closed pool runs nothing. Work and span fold into c as
// Serial's do.
func (c *Ctx) Shield(fn func(*Ctx)) {
	child := &Ctx{pool: c.pool, w: c.w, rs: &runState{pool: c.pool}}
	fn(child)
	c.Work += child.Work
	c.Span += child.Span
}

// Parallelism returns work/span, guarding against a zero span.
func Parallelism(work, span float64) float64 {
	if span <= 0 {
		return 0
	}
	return work / span
}

// String implements fmt.Stringer for debugging.
func (p *Pool) String() string {
	return fmt.Sprintf("sched.Pool{workers: %d}", len(p.workers))
}
