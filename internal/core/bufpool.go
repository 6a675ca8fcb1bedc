package core

import "sync"

// This file implements the size-classed recycling pool for the packed
// operand buffers — the tiled (and padded canonical) copies a block
// multiplication materializes on every call. Section 4's honest
// accounting counts the conversion *time*; before this pool the driver
// also paid the conversion *allocation* in full per call: three fresh
// buffers (~32 MB each at n=2048) whose make() zeroing, page faults,
// and eventual collection dominate the conversion cost for repeated
// multiplications. Buffers are recycled through sync.Pool instances
// keyed by power-of-two element-count classes, extending the PR-3
// AllocsPerRun discipline from the recursion's temporaries (the scratch
// arena) to the packed operands: steady-state repeated GEMM of a fixed
// shape allocates nothing.
//
// Memory accounting: a pooled buffer is exactly as resident as a fresh
// one, so estimateBytes charges acquired buffers at full size whether
// they hit or miss the pool; only operands owned by a *Prepacked* plan
// (allocated once, outside the call) are exempt (given).

// bufMinClass is the smallest pooled class: 1<<12 = 4096 elements
// (32 KiB). Smaller buffers are cheap to allocate and would crowd the
// pool with fragments.
const bufMinClass = 12

// bufMaxClass caps pooling at 1<<30 elements (8 GiB); anything larger
// falls through to plain allocation.
const bufMaxClass = 30

var bufPools [bufMaxClass + 1]sync.Pool

// bufClass returns the pool class for n elements: the smallest power of
// two ≥ max(n, 1<<bufMinClass), expressed as its exponent.
func bufClass(n int) int {
	c := bufMinClass
	for (1 << c) < n {
		c++
	}
	return c
}

// getBuf returns a dirty []float64 of length n, recycled when a buffer
// of n's size class is pooled. The second result reports a pool hit.
// Callers must fully overwrite the contents (pack does) or zero them
// (the fused C epilogue does) before reading.
func getBuf(n int) ([]float64, bool) {
	if n == 0 {
		return nil, false
	}
	c := bufClass(n)
	if c > bufMaxClass {
		return make([]float64, n), false
	}
	if p, _ := bufPools[c].Get().(*[]float64); p != nil {
		return (*p)[:n], true
	}
	return make([]float64, n, 1<<c), false
}

// putBuf returns a buffer to its size-class pool. Only buffers whose
// capacity is exactly a pooled class are accepted (everything getBuf
// hands out qualifies); foreign slices are left to the collector.
func putBuf(b []float64) {
	if b == nil {
		return
	}
	c := bufClass(cap(b))
	if c < bufMinClass || c > bufMaxClass || cap(b) != 1<<c {
		return
	}
	// A variable of its own: the pooled header is allocated only for a
	// buffer the pool accepts, not on every call.
	full := b[:cap(b)]
	bufPools[c].Put(&full)
}

// notePool records a pool outcome in the call's Stats (nil-safe).
func notePool(stats *Stats, hit bool) {
	if stats == nil {
		return
	}
	if hit {
		stats.PoolHits++
	} else {
		stats.PoolMisses++
	}
}

// refit rewrites a Tiled for its next use — hdr's geometry over a
// logical rows×cols — keeping its buffer when the capacity suffices (a
// runner's workspace in steady state: no pool traffic, no allocation)
// and drawing one from the buffer pool otherwise (growth, or a fresh
// Tiled). The contents are dirty, as getBuf's are.
func (t *Tiled) refit(stats *Stats, hdr Tiled, rows, cols int) {
	data := t.Data
	*t = hdr
	t.Rows, t.Cols = rows, cols
	if n := t.elems(); cap(data) >= n {
		t.Data = data[:n]
		return
	}
	putBuf(data)
	b, hit := getBuf(t.elems())
	notePool(stats, hit)
	t.Data = b
}

// releaseTiled returns a tiled matrix's buffer to the pool. The Tiled
// must not be used afterwards.
func releaseTiled(t *Tiled) {
	if t != nil {
		putBuf(t.Data)
		t.Data = nil
	}
}
