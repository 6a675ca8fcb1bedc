package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// LoadGen is a closed-loop multi-tenant load generator for a recmatd
// daemon: each of Concurrency workers loops submit → wait → submit,
// so offered load self-regulates to the daemon's capacity while still
// overrunning it when Concurrency exceeds the admission limit — the
// regime the backpressure machinery exists for. Shapes, tenants, and
// seeds are drawn deterministically from Seed, so a soak run is
// reproducible.
type LoadGen struct {
	Client *Client
	// Tenants is the number of synthetic tenants (default 4); worker i
	// drives tenant "t<i mod Tenants>".
	Tenants int
	// Concurrency is the number of closed-loop workers (default 8).
	Concurrency int
	// MaxDim bounds generated m, k, n (default 256); dims are drawn
	// log-uniformly in [16, MaxDim] so small and large shapes both occur.
	MaxDim int
	// NamedFrac is the fraction of requests using a named (plan-cached)
	// A operand, drawn from NamedOperands distinct names per tenant
	// (defaults 0.5 and 4).
	NamedFrac     float64
	NamedOperands int
	// DeadlineMS is the per-request client deadline sent to the server
	// (default 2000).
	DeadlineMS int64
	// Seed makes the run reproducible (default 1).
	Seed int64
	// Workload selects the request mix: "" or "mixed" is the broad
	// log-uniform multi-tenant mix; "batch" is the coalescing workload —
	// every request names one of a few fixed small operands in a
	// recursive layout with a skinny right-hand side, so concurrent
	// requests hash to the same plan-cache entries and the daemon's
	// request coalescer can merge them into batched engine calls.
	Workload string
	// OnResult, when non-nil, observes every completed attempt
	// (concurrently; must be goroutine-safe).
	OnResult func(Result)
}

// Result is one completed request from the generator's perspective.
type Result struct {
	Tenant  string
	M, K, N int
	Req     *Request // the full spec, for result-consistency checks
	Latency time.Duration
	Err     error // nil on success; *APIError, context, or transport error
	Resp    *Response
}

// Summary aggregates a load-generation run; Percentile and String make
// it directly usable by cmd/loadgen and the benchmark sweep.
type Summary struct {
	Duration time.Duration `json:"duration_seconds_ns"`
	Total    int           `json:"total"`
	OK       int           `json:"ok"`
	// Failure counts by error kind (shed, quota, deadline, ...);
	// transport/context failures count under "transport".
	Failed map[string]int `json:"failed,omitempty"`
	// Degraded counts successful responses that ran on a degradation
	// rung; PlanCached counts successes served from the plan cache;
	// Coalesced counts successes that shared a batched engine call with
	// at least one sibling request.
	Degraded   int `json:"degraded"`
	PlanCached int `json:"plan_cached"`
	Coalesced  int `json:"coalesced"`
	// Attribution is the per-phase latency breakdown aggregated from the
	// servers' Response.Timing objects (keyed by phase name), answering
	// "where did the run's latency go" server-side — queue vs gather vs
	// compute — independent of client-observed wall time.
	Attribution map[string]PhaseAttribution `json:"attribution,omitempty"`

	latencies []time.Duration            // successful requests only
	phases    map[string][]time.Duration // per-phase server-side durations
}

// PhaseAttribution aggregates one server-side phase across the run's
// successful responses. Share is this phase's fraction of all
// attributed time (the shares sum to 1 across phases).
type PhaseAttribution struct {
	MeanNS int64   `json:"mean_ns"`
	P99NS  int64   `json:"p99_ns"`
	Share  float64 `json:"share"`
}

// timingPhases flattens a response's timing object into named phases;
// zero phases are dropped (a request that ran alone has no gather, a
// wave's member no queue).
func timingPhases(tm *Timing) map[string]int64 {
	if tm == nil {
		return nil
	}
	out := map[string]int64{}
	for _, p := range [...]struct {
		name string
		ns   int64
	}{
		{"queue", tm.QueueNS}, {"gather", tm.GatherNS}, {"pack", tm.PackNS},
		{"compute", tm.ComputeNS}, {"unpack", tm.UnpackNS},
	} {
		if p.ns > 0 {
			out[p.name] = p.ns
		}
	}
	return out
}

// finalizeAttribution folds the collected per-phase samples into the
// Attribution map. Called once, after the workers stop.
func (s *Summary) finalizeAttribution() {
	if len(s.phases) == 0 {
		return
	}
	var grand time.Duration
	sums := map[string]time.Duration{}
	for name, ds := range s.phases {
		for _, d := range ds {
			sums[name] += d
		}
		grand += sums[name]
	}
	s.Attribution = make(map[string]PhaseAttribution, len(s.phases))
	for name, ds := range s.phases {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		var share float64
		if grand > 0 {
			share = float64(sums[name]) / float64(grand)
		}
		s.Attribution[name] = PhaseAttribution{
			MeanNS: int64(sums[name]) / int64(len(ds)),
			P99NS:  int64(ds[int(0.99*float64(len(ds)-1))]),
			Share:  share,
		}
	}
}

// QPS is successful requests per second over the run.
func (s *Summary) QPS() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.OK) / s.Duration.Seconds()
}

// ShedRate is the fraction of attempts rejected with the shed kind.
func (s *Summary) ShedRate() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Failed[KindShed]) / float64(s.Total)
}

// Percentile returns the p-th latency percentile (p in [0,100]) of
// successful requests, 0 if none.
func (s *Summary) Percentile(p float64) time.Duration {
	if len(s.latencies) == 0 {
		return 0
	}
	sort.Slice(s.latencies, func(i, j int) bool { return s.latencies[i] < s.latencies[j] })
	idx := int(p / 100 * float64(len(s.latencies)-1))
	return s.latencies[idx]
}

// CoalesceRate is the fraction of successful requests that shared a
// batched engine call.
func (s *Summary) CoalesceRate() float64 {
	if s.OK == 0 {
		return 0
	}
	return float64(s.Coalesced) / float64(s.OK)
}

func (s *Summary) String() string {
	base := fmt.Sprintf("total=%d ok=%d failed=%v qps=%.1f shed=%.1f%% p50=%v p99=%v degraded=%d cached=%d coalesced=%d",
		s.Total, s.OK, s.Failed, s.QPS(), 100*s.ShedRate(),
		s.Percentile(50), s.Percentile(99), s.Degraded, s.PlanCached, s.Coalesced)
	if len(s.Attribution) > 0 {
		names := make([]string, 0, len(s.Attribution))
		for n := range s.Attribution {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return s.Attribution[names[i]].Share > s.Attribution[names[j]].Share })
		base += " attr["
		for i, n := range names {
			if i > 0 {
				base += " "
			}
			base += fmt.Sprintf("%s=%.0f%%", n, 100*s.Attribution[n].Share)
		}
		base += "]"
	}
	return base
}

// Run drives the daemon until ctx ends and returns the aggregate.
func (g *LoadGen) Run(ctx context.Context) *Summary {
	tenants := g.Tenants
	if tenants <= 0 {
		tenants = 4
	}
	conc := g.Concurrency
	if conc <= 0 {
		conc = 8
	}
	maxDim := g.MaxDim
	if maxDim <= 0 {
		maxDim = 256
	}
	namedFrac := g.NamedFrac
	if namedFrac == 0 {
		namedFrac = 0.5
	}
	namedOps := g.NamedOperands
	if namedOps <= 0 {
		namedOps = 4
	}
	deadlineMS := g.DeadlineMS
	if deadlineMS <= 0 {
		deadlineMS = 2000
	}
	seed := g.Seed
	if seed == 0 {
		seed = 1
	}

	sum := &Summary{Failed: map[string]int{}, phases: map[string][]time.Duration{}}
	var mu sync.Mutex
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			tenant := fmt.Sprintf("t%d", w%tenants)
			for ctx.Err() == nil {
				var req *Request
				if g.Workload == "batch" {
					req = g.genBatchRequest(rng, tenant, maxDim, deadlineMS)
				} else {
					req = g.genRequest(rng, tenant, maxDim, namedFrac, namedOps, deadlineMS)
				}
				rt0 := time.Now()
				resp, err := g.Client.Do(ctx, req)
				res := Result{
					Tenant: tenant, M: req.M, K: req.K, N: req.N, Req: req,
					Latency: time.Since(rt0), Err: err, Resp: resp,
				}
				if g.OnResult != nil {
					g.OnResult(res)
				}
				mu.Lock()
				sum.Total++
				if err == nil {
					sum.OK++
					sum.latencies = append(sum.latencies, res.Latency)
					if len(resp.Degraded) > 0 {
						sum.Degraded++
					}
					if resp.PlanCached {
						sum.PlanCached++
					}
					if resp.Coalesced {
						sum.Coalesced++
					}
					for name, ns := range timingPhases(resp.Timing) {
						sum.phases[name] = append(sum.phases[name], time.Duration(ns))
					}
				} else {
					sum.Failed[failKind(err)]++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	sum.Duration = time.Since(t0)
	sum.finalizeAttribution()
	return sum
}

// genRequest draws one request: log-uniform dims, a mix of named
// (plan-cacheable) and anonymous operands, occasional β ≠ 0 and
// recursive layouts — broad enough to exercise every server path.
func (g *LoadGen) genRequest(rng *rand.Rand, tenant string, maxDim int, namedFrac float64, namedOps int, deadlineMS int64) *Request {
	logDim := func() int {
		lo, hi := 4.0, logBase2(maxDim) // dims in [16, maxDim]
		return 1 << int(lo+rng.Float64()*(hi-lo))
	}
	req := &Request{
		Tenant:     tenant,
		M:          logDim(),
		K:          logDim(),
		N:          logDim(),
		ASeed:      int64(rng.Intn(64) + 1),
		BSeed:      int64(rng.Intn(1 << 20)),
		DeadlineMS: deadlineMS,
	}
	if rng.Float64() < namedFrac {
		// Named operands repeat (few names, few seeds) so the plan cache
		// sees hits; the seed is derived from the name for determinism.
		id := rng.Intn(namedOps)
		req.AName = fmt.Sprintf("w%d", id)
		req.ASeed = int64(id + 1)
		req.Layout = "z" // recursive layout: the prepack-friendly path
	}
	if rng.Float64() < 0.25 {
		req.CSeed = int64(rng.Intn(1<<20) + 1)
		req.Beta = 0.5
	}
	return req
}

// genBatchRequest draws one coalescing-workload request: every request
// names one of two fixed square operands in the Z-Morton layout — 256×256,
// scaled down to the largest power of two within MaxDim (floor 32, so the
// skinny widths below always fit a daemon's accept limit) — with a
// skinny right-hand side 17..32 wide. Concurrent workers on the same
// tenant therefore hash to only two plan-cache keys, whatever their
// widths, the shape the daemon's request coalescer merges into batched
// engine calls under queueing.
func (g *LoadGen) genBatchRequest(rng *rand.Rand, tenant string, maxDim int, deadlineMS int64) *Request {
	dim := 256
	for dim > 32 && dim > maxDim {
		dim >>= 1
	}
	id := rng.Intn(2)
	return &Request{
		Tenant:     tenant,
		M:          dim,
		K:          dim,
		N:          17 + rng.Intn(16), // [17, 32]
		AName:      fmt.Sprintf("bw%d", id),
		ASeed:      int64(id + 1),
		BSeed:      int64(rng.Intn(1 << 20)),
		Layout:     "z",
		DeadlineMS: deadlineMS,
	}
}

func logBase2(n int) float64 {
	b := 0.0
	for v := 1; v < n; v <<= 1 {
		b++
	}
	return b
}

// failKind maps an attempt error to a Summary.Failed key.
func failKind(err error) string {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Info.Kind
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return "context"
	}
	return "transport"
}
