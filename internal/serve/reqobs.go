package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// This file is the request-scoped observability spine of the daemon:
// correlation-ID extraction, the per-request phase ledger, request
// lanes in the active trace, the timing object and Server-Timing
// header on the wire, and the single finish path every request —
// success or typed failure — funnels through. The serving question the
// driver's per-call tracer cannot answer is "where did THIS request's
// p99 go, and which wave did it ride"; a reqState answers it.

// reqState carries one request's observability identity through the
// handler: its correlation id (wire-visible), its trace serial (the
// int64 join key inside the trace), the ledger being filled, and the
// request lane when a tracer is active.
type reqState struct {
	id    string
	trace int64
	t0    time.Time
	tr    *obs.Tracer
	lane  int32
	led   obs.Ledger
}

// requestID extracts the inbound correlation id: X-Request-Id wins,
// then the trace-id field of a W3C traceparent header, then a
// server-generated id from the trace serial. Oversized or empty ids
// are replaced rather than trusted.
func requestID(r *http.Request, serial int64) string {
	if id := strings.TrimSpace(r.Header.Get("X-Request-Id")); id != "" && len(id) <= 128 {
		return id
	}
	// traceparent: version "-" trace-id "-" parent-id "-" flags
	if tp := r.Header.Get("traceparent"); tp != "" {
		parts := strings.Split(tp, "-")
		if len(parts) >= 3 && len(parts[1]) == 32 && parts[1] != strings.Repeat("0", 32) {
			return parts[1]
		}
	}
	return fmt.Sprintf("req-%08x", serial)
}

// startReq mints one request's observability state at handler entry,
// where the request's clock starts; the handler fills in the ledger's
// spec once the body has decoded. The trace serial is allocated
// unconditionally (it is one atomic add); the lane only when a tracer
// is active.
func (s *Server) startReq(r *http.Request) *reqState {
	rs := &reqState{
		trace: obs.NextTraceSerial(),
		t0:    time.Now(),
		tr:    obs.Cur(),
	}
	rs.id = requestID(r, rs.trace)
	if rs.tr != nil {
		rs.lane = rs.tr.NewRequestLane()
	}
	rs.led = obs.Ledger{ID: rs.id, Trace: rs.trace, Start: rs.t0}
	return rs
}

// phase records a phase duration into the ledger only (no lane span) —
// used when the phase's wall interval overlaps another lane child and
// a span would break the lane's nesting.
func (rs *reqState) phase(p obs.ReqPhase, d time.Duration) {
	if d < 0 {
		return
	}
	rs.led.PhaseNS[p] += d.Nanoseconds()
}

// phaseAt records a phase duration and draws it as a child span on the
// request lane. Callers must keep phaseAt intervals sequential per
// request (the handler is, naturally).
func (rs *reqState) phaseAt(p obs.ReqPhase, k obs.Kind, start time.Time, d time.Duration) {
	if d < 0 {
		return
	}
	rs.led.PhaseNS[p] += d.Nanoseconds()
	if rs.tr != nil {
		rs.tr.LaneSpan(rs.lane, k, start, d, 0)
	}
}

// finish closes the ledger with its outcome, records it into the ring
// and the phase histograms, and emits the whole-request span (arg =
// trace serial, the flow exporter's join key).
func (s *Server) finishReq(rs *reqState, outcome string) {
	total := time.Since(rs.t0)
	rs.led.Outcome = outcome
	rs.led.TotalNS = total.Nanoseconds()
	s.ledgers.Record(rs.led)
	for p := obs.ReqPhase(0); p < obs.NumReqPhases; p++ {
		if ns := rs.led.PhaseNS[p]; ns > 0 {
			s.phaseHist[p].Observe(float64(ns) / 1e9)
		}
	}
	if rs.tr != nil {
		rs.tr.LaneSpan(rs.lane, obs.KindRequest, rs.t0, total, rs.trace)
	}
}

// timing renders the ledger's attribution as the response's "timing"
// object. SerializeNS is absent: the body is encoded exactly once, so
// the encode cost lands in the ledger and histograms instead of the
// body it would have to be known before producing.
func (rs *reqState) timing() *Timing {
	return &Timing{
		QueueNS:   rs.led.PhaseNS[obs.PhaseQueue],
		GatherNS:  rs.led.PhaseNS[obs.PhaseGather],
		PackNS:    rs.led.PhaseNS[obs.PhasePack],
		ComputeNS: rs.led.PhaseNS[obs.PhaseCompute],
		UnpackNS:  rs.led.PhaseNS[obs.PhaseUnpack],
	}
}

// serverTiming renders the pre-write phases as a Server-Timing header
// value (milliseconds, per the header's spec).
func (rs *reqState) serverTiming() string {
	var b strings.Builder
	for p := obs.ReqPhase(0); p < obs.NumReqPhases; p++ { // serialize is still 0 here
		if ns := rs.led.PhaseNS[p]; ns > 0 {
			if b.Len() > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s;dur=%.3f", p.String(), float64(ns)/1e6)
		}
	}
	if b.Len() > 0 {
		b.WriteString(", ")
	}
	fmt.Fprintf(&b, "total;dur=%.3f", float64(time.Since(rs.t0).Nanoseconds())/1e6)
	return b.String()
}

// okReq writes a success response (correlation headers, Server-Timing,
// the timing object and the body: one measured encode), closing the ledger.
func (s *Server) okReq(w http.ResponseWriter, rs *reqState, resp *Response) {
	ts := time.Now()
	s.reqOK.Inc()
	resp.RequestID = rs.id
	resp.Timing = rs.timing()
	rs.led.Coalesced = resp.Coalesced
	rs.led.BatchSize = resp.BatchSize
	if resp.AlgRan != "" {
		rs.led.Alg = resp.AlgRan
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Request-Id", rs.id)
	w.Header().Set("Server-Timing", rs.serverTiming())
	buf, err := json.Marshal(resp)
	if err != nil {
		// Should be unreachable (the response is plain data); fail typed
		// rather than writing a half body.
		s.writeError(w, http.StatusInternalServerError, KindInternal, "encoding response: "+err.Error(), 0)
		s.finishReq(rs, KindInternal)
		return
	}
	w.Write(buf)
	w.Write([]byte("\n"))
	rs.phaseAt(obs.PhaseSerialize, obs.KindSerialize, ts, time.Since(ts))
	s.finishReq(rs, "ok")
}

// failReq writes a typed error and still closes a complete ledger —
// a cancelled or shed request gets the same attribution treatment as
// a success, which is exactly when attribution matters most.
func (s *Server) failReq(w http.ResponseWriter, rs *reqState, err error) {
	kind, status, retryAfter := classify(err)
	s.reg.Counter("requests_failed_" + kind).Inc()
	w.Header().Set("X-Request-Id", rs.id)
	w.Header().Set("Server-Timing", rs.serverTiming())
	s.writeError(w, status, kind, err.Error(), retryAfter)
	s.finishReq(rs, kind)
}
