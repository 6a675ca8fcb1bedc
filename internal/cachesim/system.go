package cachesim

import "fmt"

// Config describes one processor's memory hierarchy. The default mirrors
// the paper's UltraSPARC I nodes.
type Config struct {
	L1Size, L1Ways, L1Block int
	L2Size, L2Ways, L2Block int // L2Size == 0 disables the second level
	TLBEntries, PageSize    int
	// Coherence block size for false-sharing accounting; normally the
	// L1 block size.
	CoherenceBlock int
}

// UltraSPARC is the machine of Section 5: 16 KB direct-mapped L1 data
// cache with 32 B lines, 512 KB direct-mapped external cache with 64 B
// lines, 64-entry TLB over 8 KB pages.
var UltraSPARC = Config{
	L1Size: 16 << 10, L1Ways: 1, L1Block: 32,
	L2Size: 512 << 10, L2Ways: 1, L2Block: 64,
	TLBEntries: 64, PageSize: 8 << 10,
	CoherenceBlock: 32,
}

// Small is a scaled-down hierarchy for simulating small problem sizes in
// reasonable time while preserving the capacity ratios that produce the
// paper's interference effects.
var Small = Config{
	L1Size: 4 << 10, L1Ways: 1, L1Block: 32,
	L2Size: 64 << 10, L2Ways: 1, L2Block: 64,
	TLBEntries: 16, PageSize: 1 << 10,
	CoherenceBlock: 32,
}

// Proc is one simulated processor: private L1 (and optional L2) plus a
// private TLB.
type Proc struct {
	L1  *Cache
	L2  *Cache
	TLB *TLB
}

// sharer tracks, for one coherence block, which words each processor
// has touched since it last (re-)acquired the block, so that an
// invalidation can be classified as true or false sharing.
type sharer struct {
	present uint64         // bitmap of processors holding the block
	words   map[int]uint64 // proc -> bitmap of words touched
}

// System is a bus of processors with private caches kept coherent by a
// write-invalidate protocol. It classifies each invalidation as true
// sharing (the invalidated processor had touched the written word) or
// false sharing (it had only touched other words of the block) — the
// effect Section 3 blames canonical layouts for.
type System struct {
	Cfg   Config
	Procs []*Proc
	// coherence directory, at CoherenceBlock granularity
	dir       map[uint64]*sharer
	wordShift uint
	blockBits uint
}

// NewSystem builds a P-processor system with the given per-processor
// hierarchy.
func NewSystem(procs int, cfg Config) *System {
	if procs <= 0 {
		panic("cachesim: need at least one processor")
	}
	if procs > 64 {
		panic("cachesim: at most 64 processors")
	}
	if cfg.CoherenceBlock == 0 {
		cfg.CoherenceBlock = cfg.L1Block
	}
	s := &System{Cfg: cfg, dir: make(map[uint64]*sharer)}
	bb := uint(0)
	for b := cfg.CoherenceBlock; b > 1; b >>= 1 {
		bb++
	}
	s.blockBits = bb
	s.wordShift = 3 // 8-byte words
	for p := 0; p < procs; p++ {
		var l2 *Cache
		if cfg.L2Size > 0 {
			l2 = NewCache(fmt.Sprintf("P%d.L2", p), cfg.L2Size, cfg.L2Ways, cfg.L2Block, nil)
		}
		l1 := NewCache(fmt.Sprintf("P%d.L1", p), cfg.L1Size, cfg.L1Ways, cfg.L1Block, l2)
		s.Procs = append(s.Procs, &Proc{L1: l1, L2: l2, TLB: NewTLB(cfg.TLBEntries, cfg.PageSize)})
	}
	return s
}

// Access simulates one 8-byte load or store by processor p at byte
// address addr, updating caches, TLB, and the coherence directory.
func (s *System) Access(p int, addr uint64, write bool) {
	proc := s.Procs[p]
	proc.TLB.Access(addr)
	proc.L1.Access(addr, write)

	block := addr >> s.blockBits
	word := int(addr>>s.wordShift) & (1<<(s.blockBits-s.wordShift) - 1)
	sh := s.dir[block]
	if sh == nil {
		sh = &sharer{words: make(map[int]uint64)}
		s.dir[block] = sh
	}
	sh.present |= 1 << uint(p)
	sh.words[p] |= 1 << uint(word)

	if !write {
		return
	}
	// Write-invalidate: every other holder loses the block. If the
	// victim never touched the written word, the invalidation is false
	// sharing.
	for q := range s.Procs {
		if q == p || sh.present&(1<<uint(q)) == 0 {
			continue
		}
		victim := s.Procs[q]
		victim.L1.Invalidate(block << s.blockBits >> victim.L1.blockBits)
		if victim.L2 != nil {
			victim.L2.Invalidate(block << s.blockBits >> victim.L2.blockBits)
		}
		victim.L1.Stats.Invalidations++
		if sh.words[q]&(1<<uint(word)) == 0 {
			victim.L1.Stats.FalseInvalidations++
		}
		sh.present &^= 1 << uint(q)
		delete(sh.words, q)
	}
}

// Totals sums the per-processor statistics.
func (s *System) Totals() (l1, l2, tlb Stats) {
	for _, p := range s.Procs {
		l1 = addStats(l1, p.L1.Stats)
		if p.L2 != nil {
			l2 = addStats(l2, p.L2.Stats)
		}
		tlb = addStats(tlb, p.TLB.Stats)
	}
	return
}

func addStats(a, b Stats) Stats {
	a.Accesses += b.Accesses
	a.Misses += b.Misses
	a.Evictions += b.Evictions
	a.Writebacks += b.Writebacks
	a.Invalidations += b.Invalidations
	a.FalseInvalidations += b.FalseInvalidations
	return a
}

// Reset clears all caches, TLBs, statistics, and the directory.
func (s *System) Reset() {
	for _, p := range s.Procs {
		p.L1.Reset()
		if p.L2 != nil {
			p.L2.Reset()
		}
		p.TLB.Reset()
	}
	s.dir = make(map[uint64]*sharer)
}
