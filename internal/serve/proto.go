package serve

import (
	"errors"
	"fmt"
)

// This file is the wire protocol of recmatd: the JSON request/response
// shapes of POST /v1/gemm and the typed error taxonomy every failure
// maps onto. The protocol is deliberately synthetic-operand based —
// requests name operands by (name, seed, shape) and the daemon
// materializes them deterministically — so a load generator can drive
// realistic multi-tenant traffic without shipping megabytes of matrix
// data per call, while responses stay verifiable (CNorm is reproducible
// from the seeds alone).

// Request is the body of POST /v1/gemm: one C ← α·A·B + β·C operation.
// A is (M×K), B is (K×N), C is (M×N); all three are generated
// deterministically from their seeds, so two requests with equal specs
// describe the identical computation.
type Request struct {
	// Tenant identifies the caller for quota accounting; required.
	Tenant string `json:"tenant"`
	M      int    `json:"m"`
	K      int    `json:"k"`
	N      int    `json:"n"`
	// AName, when non-empty, marks A as a reusable named operand: the
	// daemon prepacks it once per (tenant, name, shape, seed, layout)
	// and serves later requests from the refcounted plan cache — the
	// serving pattern of fixed weights and streaming right-hand sides.
	AName string `json:"a_name,omitempty"`
	ASeed int64  `json:"a_seed"`
	BSeed int64  `json:"b_seed"`
	// CSeed, when non-zero, seeds a non-zero initial C so that β is
	// observable; zero starts from a zero C.
	CSeed int64 `json:"c_seed,omitempty"`
	// Alpha defaults to 1 when omitted (nil); Beta defaults to 0.
	Alpha *float64 `json:"alpha,omitempty"`
	Beta  float64  `json:"beta,omitempty"`
	// Alg and Layout name the algorithm and array layout. An empty or
	// "auto" Alg resolves per shape (Standard unless the tile grid is
	// large enough for a fast level to repay its passes by the crossover
	// rule — the same in every process on a host — Winograd otherwise);
	// Response.AlgRan reports the choice.
	// An empty Layout means column-major.
	Alg    string `json:"alg,omitempty"`
	Layout string `json:"layout,omitempty"`
	// DeadlineMS is the client's latency budget; the server caps it at
	// its configured maximum and applies its default when omitted.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// ReturnData asks for the full C in the response; honored only up
	// to 4096 elements (maxReturnElems; tests use it for exact checks).
	ReturnData bool `json:"return_data,omitempty"`
}

// Response is the success body of /v1/gemm.
type Response struct {
	Tenant string `json:"tenant"`
	M      int    `json:"m"`
	K      int    `json:"k"`
	N      int    `json:"n"`
	// AlgRan is the algorithm that actually executed — it differs from
	// the requested one when the degradation ladder stepped in under
	// the tenant's memory budget.
	AlgRan string `json:"alg_ran"`
	// FastCutoff and FastLevels say how a fast algorithm ran: the grid
	// side (in tiles) at or below which it handed over to the standard
	// recursion — the crossover rule's for the call's kernel family,
	// tiles and algorithm — and how many levels of its own it ran above
	// that. Both are zero for a non-fast AlgRan.
	FastCutoff int `json:"fast_cutoff,omitempty"`
	FastLevels int `json:"fast_levels,omitempty"`
	// Kernel is the leaf kernel that ran: a function of this host's CPU
	// features and the call's tile shape, so it cannot differ between two
	// requests of one shape, or between two starts of the daemon on one
	// host — which is why no plan-cache or coalesce key carries it.
	Kernel string `json:"kernel"`
	// Degraded lists the admission-ladder decisions taken for the call
	// (empty means the requested configuration ran unchanged) — the
	// degradation-rung reporting of Stats.Degraded on the wire.
	Degraded []string `json:"degraded,omitempty"`
	// PlanCached reports whether A was served from the plan cache.
	PlanCached bool `json:"plan_cached"`
	// Coalesced reports that this request shared a batched engine call
	// with at least one other queued request; BatchSize is the size of
	// the group a plan-cached request ran in (1 when it ran alone; absent
	// for a request that multiplied its own A).
	Coalesced bool `json:"coalesced,omitempty"`
	BatchSize int  `json:"batch_size,omitempty"`
	// QueueNS is the time the request waited in the admission queue;
	// ComputeNS and TotalNS are the engine's compute and end-to-end
	// times for the multiplication itself.
	QueueNS   int64 `json:"queue_ns"`
	ComputeNS int64 `json:"compute_ns"`
	TotalNS   int64 `json:"total_ns"`
	// CNorm is the entrywise 1-norm of the result (sum of |C_ij|) — a
	// cheap, order-independent digest a client can verify against a
	// locally computed reference.
	CNorm float64 `json:"c_norm"`
	// Data is C in column-major order, only when ReturnData was set and
	// M*N fits the server's echo cap.
	Data []float64 `json:"data,omitempty"`
	// RequestID echoes the request's correlation id (inbound
	// X-Request-Id or traceparent trace-id, else server-generated); the
	// same id names the request's lane in a trace and its ledger in a
	// flight-recorder bundle.
	RequestID string `json:"request_id,omitempty"`
	// Timing is the per-request latency attribution ledger.
	Timing *Timing `json:"timing,omitempty"`
}

// Timing is a response's phase attribution, in nanoseconds. Phases are
// disjoint: queue wait (admission, a group of one), gather (the
// coalesce window, a wave's members), pack/compute/unpack (the engine
// call's conversion-in, compute and conversion-out walls; the members
// of a wave all report the wave's). Decoding, operand seeding, the
// response's norm and its serialization — measured after the body is
// encoded — appear in the ledger, histograms and flight dumps rather
// than here.
type Timing struct {
	QueueNS   int64 `json:"queue_ns,omitempty"`
	GatherNS  int64 `json:"gather_ns,omitempty"`
	PackNS    int64 `json:"pack_ns,omitempty"`
	ComputeNS int64 `json:"compute_ns,omitempty"`
	UnpackNS  int64 `json:"unpack_ns,omitempty"`
}

// Error kinds: the closed set of strings ErrorInfo.Kind can carry.
// Every failed request maps to exactly one.
const (
	KindBadRequest = "bad_request" // malformed body, bad dims/names, non-finite scalars
	KindTooLarge   = "too_large"   // can never fit the tenant quota, even idle
	KindQuota      = "quota"       // tenant concurrent-bytes quota exhausted right now
	KindShed       = "shed"        // admission queue full or queue wait exceeded
	KindDeadline   = "deadline"    // per-request deadline expired
	KindCanceled   = "canceled"    // client disconnected mid-request
	KindDraining   = "draining"    // server is shutting down
	KindInternal   = "internal"    // worker panic or other engine failure
)

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// ErrorInfo is the typed error a failed request returns.
type ErrorInfo struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// RetryAfterMS mirrors the Retry-After header for retryable kinds
	// (shed, quota, draining); 0 means not retryable.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Sentinel errors of the serving layer, each the root of one error
// kind. Everything a handler can fail with is one of these, a recmat
// typed error, or a context error — reachable through errors.Is.
var (
	// ErrShed marks load shedding: the admission queue was full or the
	// bounded queue wait expired before a slot opened.
	ErrShed = errors.New("serve: overloaded, request shed")
	// ErrQuota marks a tenant whose concurrent-bytes quota cannot admit
	// the request right now (retryable once in-flight work completes).
	ErrQuota = errors.New("serve: tenant quota exceeded")
	// ErrTooLarge marks a request whose operand footprint exceeds the
	// whole tenant quota — it can never be admitted, so don't retry.
	ErrTooLarge = errors.New("serve: request exceeds tenant quota")
	// ErrDraining marks requests rejected or cancelled because the
	// server is shutting down.
	ErrDraining = errors.New("serve: draining")
	// errBadRequest marks a body that does not decode or validate.
	errBadRequest = errors.New("serve: bad request")
)

func validate(req *Request, maxDim int) error {
	if req.Tenant == "" {
		return fmt.Errorf("tenant is required")
	}
	for _, d := range [3]struct {
		name string
		v    int
	}{{"m", req.M}, {"k", req.K}, {"n", req.N}} {
		if d.v < 1 || d.v > maxDim {
			return fmt.Errorf("%s=%d out of range [1, %d]", d.name, d.v, maxDim)
		}
	}
	return nil
}

// alpha returns the request's effective alpha (1 when omitted).
func (r *Request) alpha() float64 {
	if r.Alpha == nil {
		return 1
	}
	return *r.Alpha
}
