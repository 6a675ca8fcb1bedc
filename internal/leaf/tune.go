package leaf

import (
	"sort"
	"sync"
	"time"
)

// The fast-algorithm crossover. One level of a Strassen-like recursion
// trades an eighth half-size product for element-wise passes over the
// quadrants. The paper's scalar leaf made that trade a win down to
// single tiles; a SIMD leaf multiplies a tile faster than the passes
// stream it, so the lower levels lose. Where the trade turns is a
// property of the kernel, the tile shape and the host, and is resolved
// from two timings: the leaf product, and the passes at each level's
// quadrant size — small quadrants stream from cache, so a rate taken
// at memory speed would put the crossover several levels too high.

// Level is the element-wise work one level of a fast algorithm runs
// besides its seven products: the three kinds of pass and how many of
// each. The driver supplies its own, so the code priced is the code
// that runs.
type Level struct {
	Add3          func(dst, a, b []float64) // dst = a ± b
	Add2          func(dst, a []float64)    // dst ±= a
	Zero          func(dst []float64)
	N3, N2, NZero int
}

// Rates is what the crossover is resolved from, for one kernel on one
// tile shape.
type Rates struct {
	// Leaf is the time of one tile product, in nanoseconds.
	Leaf float64
	// Pass[i] is the time of one level's passes per tile of quadrant, in
	// nanoseconds, on quadrants 2^i tiles a side. Entries from N on
	// repeat entry N-1: no grid has needed them yet, or they lie past
	// passCap.
	Pass [8]float64
	N    int
}

// fastMargin is how many times over a level must repay its modelled
// passes. They are timed on one core with three quadrants to
// themselves; in a call every worker streams at once over a working set
// ten times that, and the products then read cold temporaries. Sweeps
// on AVX2 hosts (EXPERIMENTS.md) put the first level the bare model
// admits, and the one above it, between 20% behind Standard and 6%
// ahead, and the first clear win two levels up; and the measured ratio
// itself moves by ±30% from one process to the next. Auto promises
// never to be slower than Standard, so the margin sits where that whole
// spread lands on the clear win or above it.
const fastMargin = 5

// wins reports whether a fast level on quadrants 2^i tiles a side —
// seven products plus its passes — beats eight products.
func (r Rates) wins(i int) bool {
	return fastMargin*r.Pass[min(i, len(r.Pass)-1)] <= r.Leaf*float64(int(1)<<i)
}

// Cutoff returns the grid side, in tiles, at or below which a fast
// algorithm should hand over to the standard recursion: half the
// smallest power-of-two side at which a fast level wins.
func (r Rates) Cutoff() int {
	i := 0
	for i < 30 && !r.wins(i) {
		i++
	}
	return 1 << i
}

type rateKey struct {
	kernel  string
	m, n, k int
}

var (
	tuneMu    sync.Mutex
	rateCache = map[rateKey]Rates{}
)

// ResetCalibration drops the memoized fast-algorithm rates, the only
// measurement a process remembers: the default kernel (Auto) is not
// measured and has nothing to reset.
func ResetCalibration() {
	tuneMu.Lock()
	rateCache = map[rateKey]Rates{}
	tuneMu.Unlock()
}

// passCap bounds the quadrants the passes are timed on, in elements;
// larger ones take the rate measured at the cap.
const passCap = 1 << 16

// FastRates times the kernel impl on m×n×k tiles and lv's passes far
// enough up to decide every level of a grid side tiles a side, and no
// further: a process that multiplies small matrices never streams large
// quadrants. The rates are memoized per kernel name and tile shape and
// extended when a larger grid asks.
//
// Only the ratio of the two timings decides, and a shared host's speed
// moves by half within milliseconds, taking both with it. So every
// level times the leaf and its passes back to back, rateReps times,
// and keeps the median ratio — which cold processes agree on where
// best-of timings taken apart do not — scaled to the leaf time on
// record.
func FastRates(impl Impl, m, n, k int, lv Level, side int) Rates {
	key := rateKey{impl.Name, m, n, k}
	tuneMu.Lock()
	defer tuneMu.Unlock()
	r := rateCache[key]
	elems := max((m*k+k*n+m*n)/3, 1) // of a tile, over the three operands
	quad := func(i int) int { return min(elems<<(2*i), passCap) }
	var leaf func() float64
	var buf []float64
	for i := r.N; i < len(r.Pass) && 2<<i <= side && (i == 0 || !r.wins(i-1)); i++ {
		if leaf == nil {
			leaf = leafTimer(impl.Kern, m, n, k)
			top := i
			for top+1 < len(r.Pass) && 4<<top <= side {
				top++
			}
			buf = make([]float64, 3*quad(top))
		}
		q := quad(i)
		l, ratio := timeLevel(leaf, lv, buf[:q], buf[q:2*q], buf[2*q:3*q])
		if r.Leaf == 0 {
			r.Leaf = l
		}
		r.Pass[i] = ratio * r.Leaf * float64(elems) / float64(q)
		if r.N = i + 1; q == passCap {
			r.N = len(r.Pass)
		}
		for j := i + 1; j < len(r.Pass); j++ {
			r.Pass[j] = r.Pass[i]
		}
	}
	if leaf != nil {
		rateCache[key] = r
	}
	return r
}

// rateReps is the number of timed repetitions behind each rate.
const rateReps = 7

// calCap bounds the dimensions a leaf product is timed at, so that
// pricing a kernel stays in the millisecond range even when a caller
// forces degenerate whole-matrix tiles; kernel speed is stable above
// the cap.
const calCap = 128

// leafTimer returns a function timing one m×n×k tile product on
// contiguous operands, in nanoseconds. Shapes past calCap are timed at
// the cap and scaled by volume; small tiles are
// timed several products at a time, above the clock's resolution.
func leafTimer(kern Kernel, m, n, k int) func() float64 {
	cm, cn, ck := min(m, calCap), min(n, calCap), min(k, calCap)
	a, b, c := make([]float64, cm*ck), make([]float64, ck*cn), make([]float64, cm*cn)
	for i := range a {
		a[i] = 1
	}
	for i := range b {
		b[i] = 1
	}
	vol := max(cm*cn*ck, 1)
	calls := max(1, 1<<17/vol)
	scale := float64(m) * float64(n) * float64(k) / float64(vol) / float64(calls)
	return func() float64 {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			kern(cm, cn, ck, a, cm, b, ck, c, cm)
		}
		return float64(time.Since(t0).Nanoseconds()) * scale
	}
}

// timeLevel returns the median leaf time and the median ratio of one
// level's passes over the three quadrants to it. The quadrants lie back
// to back, as a curve layout and the arena place them.
func timeLevel(leaf func() float64, lv Level, dst, a, b []float64) (float64, float64) {
	since := func(f func()) float64 {
		t0 := time.Now()
		f()
		return float64(time.Since(t0).Nanoseconds())
	}
	var leaves, ratios [rateReps + 1]float64
	for j := range leaves { // the first round faults the operands in
		leaves[j] = leaf()
		ratios[j] = (float64(lv.N3)*since(func() { lv.Add3(dst, a, b) }) +
			float64(lv.N2)*since(func() { lv.Add2(dst, a) }) +
			float64(lv.NZero)*since(func() { lv.Zero(dst) })) / leaves[j]
	}
	sort.Float64s(leaves[1:])
	sort.Float64s(ratios[1:])
	return leaves[1+rateReps/2], ratios[1+rateReps/2]
}
