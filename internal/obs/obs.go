// Package obs is the zero-dependency observability layer of the
// library: an event tracer, a metrics registry, and the glue the
// driver and scheduler use to label profiles. It exists because the
// paper's Cilk critique is at bottom an argument about runtime
// instrumentation — work, span, and steal behavior were what let the
// authors explain their speedup curves — and because one-shot Report
// snapshots cannot show a timeline or aggregate across calls.
//
// # The tracer
//
// A Tracer records timestamped spans (scheduler tasks, leaf-kernel
// runs, pack/unpack chunks, driver phases) and instants (steals,
// spawns, arena reservations and heap fallbacks, degradation
// decisions) into per-worker ring buffers, and exports them as Chrome
// Trace Event JSON loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing, one track per worker plus one per concurrent
// driver call.
//
// Overhead discipline: exactly one process-wide tracer can be active
// (Install/Uninstall on an atomic pointer), and every tracepoint in
// the hot paths is written as
//
//	if t := obs.Cur(); t != nil { ... }
//
// so the disabled cost is one atomic load and a branch — no
// allocation, no time.Now() call, nothing the compiler must keep
// alive. The enabled cost is two time.Now() calls and a handful of
// atomic stores into a pre-allocated ring.
//
// Ring buffers never block and never allocate after NewTracer: when a
// ring wraps, the oldest events are overwritten and counted in
// Drops(). Slot fields are written and read with atomics, so a thief
// and an exporter (or two workers colliding on one ring after a
// wraparound race) can never produce a torn read that trips the race
// detector; at worst a wrapped slot decodes as one bogus event, which
// the exporter's validity filter discards.
package obs

import (
	"errors"
	"sync/atomic"
	"time"
)

// Kind enumerates the traced operations. Values start at 1 so that an
// unwritten ring slot (meta == 0) is distinguishable from any event.
type Kind uint8

const (
	// KindTask is a top-level scheduler task frame on a worker.
	KindTask Kind = 1 + iota
	// KindNested is a task frame run on top of another (the inline
	// first child of a Parallel, or help-first/stolen work executed
	// inside a suspended frame's sync loop).
	KindNested
	// KindLeaf is one leaf-kernel multiplication.
	KindLeaf
	// KindPack is one operand-packing chunk (column-major → layout).
	KindPack
	// KindUnpack is one unpack/epilogue chunk (layout → column-major).
	KindUnpack
	// KindZero is one zero-fill chunk (the C-tile scrub).
	KindZero
	// KindConvertIn is a driver call's whole convert-in phase.
	KindConvertIn
	// KindCompute is a driver call's whole compute phase.
	KindCompute
	// KindConvertOut is a driver call's whole convert-out phase.
	KindConvertOut
	// KindGEMM is one whole driver call.
	KindGEMM
	// KindSpawn marks a task pushed to a deque (instant).
	KindSpawn
	// KindSteal marks a successful steal; arg is the victim (instant).
	KindSteal
	// KindArena marks an arena reservation; arg is bytes (instant).
	KindArena
	// KindArenaFallback marks a temporary that missed the arena and
	// fell back to the heap; arg is bytes (instant).
	KindArenaFallback
	// KindDegrade marks one graceful-degradation decision (instant).
	KindDegrade
	// KindRequest is one whole served request on a request lane; its
	// arg is the request's trace serial, the join key flow events use
	// to link the request to the wave items it rode.
	KindRequest
	// KindQueueWait is a request's admission-queue wait phase.
	KindQueueWait
	// KindGather is a coalesced request's wave-gathering phase: the
	// window between joining a coalesce group and the wave launching.
	KindGather
	// KindSerialize is a request's response-serialization phase.
	KindSerialize
	// KindWaveItem is one request's slice of a batched engine call,
	// recorded on the worker track that executed it; arg is the
	// owning request's trace serial (0 for unattributed items).
	KindWaveItem
	// KindPark is one interval a worker spent parked — out of work and
	// blocked until a spawn, a root task or the end of the join it was
	// syncing on. On a worker track it is the gap before a late task.
	KindPark
	numKinds
)

// kindNames are the Chrome trace event names, indexed by Kind.
var kindNames = [numKinds]string{
	KindTask:          "task",
	KindNested:        "task-nested",
	KindLeaf:          "leaf",
	KindPack:          "pack",
	KindUnpack:        "unpack",
	KindZero:          "zero-fill",
	KindConvertIn:     "convert-in",
	KindCompute:       "compute",
	KindConvertOut:    "convert-out",
	KindGEMM:          "gemm",
	KindSpawn:         "spawn",
	KindSteal:         "steal",
	KindArena:         "arena-reserve",
	KindArenaFallback: "arena-fallback",
	KindDegrade:       "degrade",
	KindRequest:       "request",
	KindQueueWait:     "queue-wait",
	KindGather:        "coalesce-gather",
	KindSerialize:     "serialize",
	KindWaveItem:      "wave-item",
	KindPark:          "park",
}

// String returns the event name used in the Chrome trace.
func (k Kind) String() string {
	if k == 0 || k >= numKinds {
		return "invalid"
	}
	return kindNames[k]
}

// argFormatters optionally renders a kind's int64 span arg as a string
// in the Chrome export (e.g. the gemm span's algorithm id → its name).
// Registered at init time by the packages that own the encoding, read
// only at export time.
var argFormatters [numKinds]func(int64) string

// SetArgFormatter installs the export-time renderer for k's span arg.
// Call from an init function; installing formatters after tracing has
// started races with export.
func SetArgFormatter(k Kind, f func(int64) string) {
	if k > 0 && k < numKinds {
		argFormatters[k] = f
	}
}

// durInstant is the Dur sentinel marking an instant event.
const durInstant = int64(-1)

// laneBase offsets caller-lane tids away from worker ids so that each
// concurrent driver call renders as its own well-nested track.
const laneBase = 1000

// reqLaneBase offsets request-lane tids above caller lanes: a served
// request gets its own track carrying the KindRequest span and its
// phase children, distinct from the engine-call lane the request's
// compute ran on.
const reqLaneBase = 1 << 20

// slot is one ring entry. Every field is atomic: claims are made with
// a fetch-add on the ring's pos, so two writers can collide on a slot
// only after a full wraparound inside one write's window — the atomics
// make that collision (and a concurrent export) a stale read instead
// of a data race.
type slot struct {
	ts   atomic.Int64 // span start / instant time, ns since Tracer start
	dur  atomic.Int64 // span duration ns, or durInstant
	arg  atomic.Int64 // kind-specific payload (bytes, flops, victim id)
	meta atomic.Int64 // tid<<8 | kind; 0 = never written
}

// ring is one single-producer-in-steady-state event buffer. pos counts
// every claim ever made; pos beyond len(buf) means the oldest events
// were overwritten.
type ring struct {
	pos atomic.Uint64
	// Pad the hot counter away from the neighboring ring's, so two
	// workers' claims do not false-share one cache line.
	_   [56]byte
	buf []slot
}

func (r *ring) put(ts, dur, arg int64, tid int32, k Kind) {
	i := r.pos.Add(1) - 1
	s := &r.buf[i&uint64(len(r.buf)-1)]
	s.ts.Store(ts)
	s.dur.Store(dur)
	s.arg.Store(arg)
	s.meta.Store(int64(tid)<<8 | int64(k))
}

func (r *ring) drops() int64 {
	p := r.pos.Load()
	if n := uint64(len(r.buf)); p > n {
		return int64(p - n)
	}
	return 0
}

// DefaultRingCap is the per-ring capacity NewTracer uses when cap <= 0:
// 16384 events × 32 bytes = 512 KiB per worker.
const DefaultRingCap = 1 << 14

// Tracer records events into per-worker rings plus one shared ring for
// caller-side (driver-phase) events. Create with NewTracer, activate
// with Install, and read back with Export after Uninstall.
type Tracer struct {
	start   time.Time
	rings   []ring // rings[0]: caller lanes; rings[1+i]: worker i
	laneSeq atomic.Int64
	reqSeq  atomic.Int64
}

// NewTracer allocates a tracer for a pool of the given size. perRing
// is the per-ring event capacity, rounded up to a power of two;
// <= 0 selects DefaultRingCap. All memory is allocated here — the
// recording paths never allocate.
func NewTracer(workers, perRing int) *Tracer {
	if workers < 1 {
		workers = 1
	}
	if perRing <= 0 {
		perRing = DefaultRingCap
	}
	capPow := 1
	for capPow < perRing {
		capPow <<= 1
	}
	t := &Tracer{start: time.Now(), rings: make([]ring, workers+1)}
	for i := range t.rings {
		t.rings[i].buf = make([]slot, capPow)
	}
	return t
}

// current is the process-wide active tracer; nil means disabled. One
// atomic load of this pointer is the entire disabled-path cost of
// every tracepoint.
var current atomic.Pointer[Tracer]

// Cur returns the active tracer, or nil when tracing is disabled.
func Cur() *Tracer { return current.Load() }

// Install activates t. Only one tracer can be active per process; a
// second Install fails until Uninstall releases the slot.
func Install(t *Tracer) error {
	if t == nil {
		return errors.New("obs: Install(nil)")
	}
	if !current.CompareAndSwap(nil, t) {
		return errors.New("obs: a tracer is already installed")
	}
	return nil
}

// Uninstall deactivates t if it is the active tracer. In-flight
// tracepoints that already loaded t may still record into its rings;
// Export is therefore only complete once the work being traced has
// quiesced (the Engine guarantees this by exporting after its calls
// return).
func Uninstall(t *Tracer) { current.CompareAndSwap(t, nil) }

// ringFor maps a worker id to its ring. Workers beyond the tracer's
// size (another pool's workers emitting while this tracer is active)
// fold onto the configured rings — safe because slot writes are
// atomic — and a negative id (a Ctx not bound to any worker) records
// nothing.
func (t *Tracer) ringFor(worker int) *ring {
	if worker < 0 || len(t.rings) < 2 {
		return nil
	}
	i := 1 + worker
	if i >= len(t.rings) {
		i = 1 + worker%(len(t.rings)-1)
	}
	return &t.rings[i]
}

// Span records a completed span on a worker's track. start/dur come
// from the caller's own clock reads, so the tracepoint pays exactly
// two time.Now() calls.
func (t *Tracer) Span(worker int, k Kind, start time.Time, dur time.Duration, arg int64) {
	r := t.ringFor(worker)
	if r == nil {
		return
	}
	r.put(int64(start.Sub(t.start)), int64(dur), arg, int32(worker), k)
}

// Instant records an instantaneous event on a worker's track.
func (t *Tracer) Instant(worker int, k Kind, arg int64) {
	r := t.ringFor(worker)
	if r == nil {
		return
	}
	r.put(int64(time.Since(t.start)), durInstant, arg, int32(worker), k)
}

// NewLane allocates a caller track. Each concurrent driver call gets
// its own lane so its phase spans nest properly instead of
// interleaving with another call's on a shared track.
func (t *Tracer) NewLane() int32 {
	return laneBase + int32(t.laneSeq.Add(1)) - 1
}

// NewRequestLane allocates a request track: one per served request,
// rendered as "request N" and carrying the KindRequest span plus its
// phase children. Request lanes share the caller ring with engine-call
// lanes; only the tid range differs.
func (t *Tracer) NewRequestLane() int32 {
	return reqLaneBase + int32(t.reqSeq.Add(1)) - 1
}

// LaneSpan records a completed span on a caller lane.
func (t *Tracer) LaneSpan(lane int32, k Kind, start time.Time, dur time.Duration, arg int64) {
	t.rings[0].put(int64(start.Sub(t.start)), int64(dur), arg, lane, k)
}

// LaneInstant records an instantaneous event on a caller lane.
func (t *Tracer) LaneInstant(lane int32, k Kind, arg int64) {
	t.rings[0].put(int64(time.Since(t.start)), durInstant, arg, lane, k)
}

// traceSerial allocates process-global request trace serials. The
// serial is the int64 join key written as the arg of a request's
// KindRequest span and of every KindWaveItem event attributed to it;
// it is process-global (not per-tracer) so a serial minted before a
// flight-recorder tracer was armed still correlates inside its window.
var traceSerial atomic.Int64

// NextTraceSerial returns a fresh non-zero request trace serial.
func NextTraceSerial() int64 { return traceSerial.Add(1) }

// Drops returns the number of events lost to ring wraparound. The
// rings overwrite the oldest events rather than blocking a worker, so
// a long traced run keeps its most recent window.
func (t *Tracer) Drops() int64 {
	var n int64
	for i := range t.rings {
		n += t.rings[i].drops()
	}
	return n
}
