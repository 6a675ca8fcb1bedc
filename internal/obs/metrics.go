package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the metrics leg of the observability layer: cumulative
// counters and fixed-bucket histograms aggregated across Engine calls.
// Everything is updated with atomics and read with Snapshot, so a
// serving process can scrape a live engine without stopping it.

// Counter is a cumulative, race-safe int64 metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a race-safe int64 level metric: unlike a Counter it moves in
// both directions and reads as the current level, not a cumulative
// total. The serving layer uses gauges for queue depth and active
// tenant counts — quantities a scrape wants as-of-now values.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc increments the gauge by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Bucket i counts
// observations ≤ Bounds[i]; the final implicit bucket counts overflow.
// Observe is lock-free: bucket counts and the total are atomic adds,
// and the float64 sum is a CAS loop.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Default bucket bounds for the driver's metrics.
var (
	// SecondsBuckets spans 100µs .. ~100s in half-decade steps.
	SecondsBuckets = []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10, 30, 100}
	// GFLOPSBuckets spans sub-1 to beyond any single-node double-precision rate.
	GFLOPSBuckets = []float64{0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	// RatioBuckets covers [0, 1] quantities like worker utilization.
	RatioBuckets = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
	// BatchBuckets covers wave/coalesce sizes in powers of two: a
	// request batched alone lands in the first bucket, the admission
	// queue's worth of coalesced members in the middle ones.
	BatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
)

// Registry holds named counters and histograms. The zero value is not
// usable; create with NewRegistry. Metric creation takes a mutex;
// updates through the returned handles are lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: map[string]*Counter{}, gauges: map[string]*Gauge{}, hists: map[string]*Histogram{}}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds (which must be sorted ascending) on first use; an
// existing histogram keeps its original bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		b := append([]float64(nil), bounds...)
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is the frozen state of one histogram. Counts has
// len(Bounds)+1 entries; the last is the overflow bucket.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Mean returns Sum/Count, or 0 for an empty histogram.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket
// counts by linear interpolation inside the bucket holding the target
// rank, the standard Prometheus histogram_quantile estimate. The first
// bucket interpolates from 0, and ranks landing in the overflow bucket
// return the last bound (the estimate is clamped to the observable
// range). An empty histogram returns 0.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count <= 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum int64
	for i, b := range h.Bounds {
		prev := cum
		cum += h.Counts[i]
		if float64(cum) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			if h.Counts[i] == 0 {
				return b
			}
			frac := (rank - float64(prev)) / float64(h.Counts[i])
			if frac < 0 {
				frac = 0
			}
			return lo + (b-lo)*frac
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Sub returns the histogram delta h − prev: the observations recorded
// between prev's snapshot and h's. Mismatched bounds (a histogram
// recreated with a different shape) yield h unchanged, and counters
// that regressed clamp to zero rather than going negative.
func (h HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	if len(prev.Bounds) != len(h.Bounds) || len(prev.Counts) != len(h.Counts) {
		return h
	}
	d := HistogramSnapshot{
		Count:  h.Count - prev.Count,
		Sum:    h.Sum - prev.Sum,
		Bounds: h.Bounds,
		Counts: make([]int64, len(h.Counts)),
	}
	if d.Count < 0 {
		d.Count = 0
	}
	for i := range h.Counts {
		if c := h.Counts[i] - prev.Counts[i]; c > 0 {
			d.Counts[i] = c
		}
	}
	return d
}

// Snapshot is a point-in-time copy of a whole registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Quantile estimates the q-quantile of the named histogram, or 0 when
// the snapshot has no histogram of that name.
func (s Snapshot) Quantile(name string, q float64) float64 {
	return s.Histograms[name].Quantile(q)
}

// Snapshot copies every metric. It is safe to call concurrently with
// updates; each individual value is read atomically, though values
// observed mid-burst may be one update apart from each other.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count:  h.count.Load(),
			Sum:    math.Float64frombits(h.sum.Load()),
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}
