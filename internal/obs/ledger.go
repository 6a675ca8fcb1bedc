package obs

import (
	"sync"
	"time"
)

// This file is the per-request attribution ledger: where one served
// request's latency went, phase by phase. The serving layer fills one
// Ledger per request (success or failure) and records it into a
// process-global ring, so that at SLO-violation time the flight
// recorder can dump the recent-request history alongside the trace
// window — the request-scoped analogue of the driver's Stats.

// ReqPhase indexes a request's phase ledger. Phases are disjoint
// wall-clock intervals of one request's life; whatever the named
// phases don't cover (handler overhead, response write) shows up as
// Total minus the phase sum.
type ReqPhase int

const (
	// PhaseQueue is the admission-queue wait of a request that ran
	// alone; a wave's members record that wait as their gather.
	PhaseQueue ReqPhase = iota
	// PhaseGather is the coalesce window: joining a group until the
	// wave's engine call launched.
	PhaseGather
	// PhasePack, PhaseCompute and PhaseUnpack are the engine call's
	// walls: conversion into the recursive layout, the multiplication,
	// and conversion of the result back to column-major. A coalesced
	// member records the *shared wave's* — every member of one wave
	// reports the same three values.
	PhasePack
	PhaseCompute
	PhaseUnpack
	// PhaseSerialize is response encoding: headers, timing and body.
	PhaseSerialize
	// PhaseDecode (read, decode, validate, parse), PhaseSeed (operand
	// materialisation) and PhaseRespond (the result's norm and echo)
	// are appended so that the six indices above keep their meaning.
	PhaseDecode
	PhaseSeed
	PhaseRespond
	// NumReqPhases sizes per-phase arrays.
	NumReqPhases
)

var reqPhaseNames = [NumReqPhases]string{
	PhaseQueue:     "queue",
	PhaseGather:    "gather",
	PhasePack:      "pack",
	PhaseCompute:   "compute",
	PhaseUnpack:    "unpack",
	PhaseSerialize: "serialize",
	PhaseDecode:    "decode",
	PhaseSeed:      "seed",
	PhaseRespond:   "respond",
}

// String returns the phase's wire name (used in timing JSON,
// Server-Timing headers, and histogram names).
func (p ReqPhase) String() string {
	if p < 0 || p >= NumReqPhases {
		return "invalid"
	}
	return reqPhaseNames[p]
}

// ReqPhaseNames returns the wire names of all phases in index order.
func ReqPhaseNames() []string {
	out := make([]string, NumReqPhases)
	for i := range out {
		out[i] = reqPhaseNames[i]
	}
	return out
}

// Ledger is one request's attribution record: identity, what ran, how
// it ended, and where the time went.
type Ledger struct {
	// ID is the request's correlation id (inbound X-Request-Id /
	// traceparent trace-id, or server-generated).
	ID string `json:"id"`
	// Trace is the request's trace serial — the arg of its KindRequest
	// span and of the KindWaveItem events it rode, so a dumped ledger
	// can be joined against the dumped trace slice.
	Trace  int64  `json:"trace"`
	Tenant string `json:"tenant"`
	Alg    string `json:"alg,omitempty"`
	M      int    `json:"m"`
	K      int    `json:"k"`
	N      int    `json:"n"`
	// Coalesced marks requests that shared a batched engine call;
	// BatchSize is the wave size they rode in.
	Coalesced bool `json:"coalesced,omitempty"`
	BatchSize int  `json:"batch_size,omitempty"`
	// Outcome is "ok" or the typed error kind the request failed with.
	Outcome string    `json:"outcome"`
	Start   time.Time `json:"start"`
	TotalNS int64     `json:"total_ns"`
	// PhaseNS is indexed by ReqPhase.
	PhaseNS [NumReqPhases]int64 `json:"phase_ns"`
}

// PhaseMap renders the phase ledger as a name → ns map (the dump and
// timing-JSON shape).
func (l *Ledger) PhaseMap() map[string]int64 {
	m := make(map[string]int64, NumReqPhases)
	for p := ReqPhase(0); p < NumReqPhases; p++ {
		m[reqPhaseNames[p]] = l.PhaseNS[p]
	}
	return m
}

// LedgerRing is a fixed-capacity ring of recent request ledgers. It is
// mutex-based rather than lock-free: one Record per request is cold
// next to the request's own work, and the obs-gate bounds its cost.
type LedgerRing struct {
	mu    sync.Mutex
	buf   []Ledger
	pos   int   // next write index
	n     int   // live entries, ≤ len(buf)
	total int64 // records ever
}

// DefaultLedgerCap is the ring capacity NewLedgerRing uses when
// capacity <= 0.
const DefaultLedgerCap = 256

// NewLedgerRing returns a ring holding the most recent capacity
// ledgers.
func NewLedgerRing(capacity int) *LedgerRing {
	if capacity <= 0 {
		capacity = DefaultLedgerCap
	}
	return &LedgerRing{buf: make([]Ledger, capacity)}
}

// Record appends one ledger, overwriting the oldest when full.
func (r *LedgerRing) Record(l Ledger) {
	r.mu.Lock()
	r.buf[r.pos] = l
	r.pos = (r.pos + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.total++
	r.mu.Unlock()
}

// Recent returns up to max ledgers, newest first; max <= 0 returns
// everything live.
func (r *LedgerRing) Recent(max int) []Ledger {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.n
	if max > 0 && max < n {
		n = max
	}
	out := make([]Ledger, n)
	for i := 0; i < n; i++ {
		out[i] = r.buf[((r.pos-1-i)%len(r.buf)+len(r.buf))%len(r.buf)]
	}
	return out
}

// Total returns the number of ledgers ever recorded.
func (r *LedgerRing) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
