//go:build unix

package sched

import (
	"syscall"
	"testing"
	"time"
)

// processCPU is the user + system CPU time the process has used.
func processCPU(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Skipf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func TestIdlePoolIsQuiescent(t *testing.T) {
	// An idle pool waits on events and makes none: once the tokens left
	// over from its last run are spent no counter moves and no CPU time
	// is used. (Polling, four idle workers woke ~3,700 times a second.)
	p := NewPool(4)
	defer p.Close()
	if _, _, err := p.Run(func(c *Ctx) {
		fns := make([]func(*Ctx), 16)
		for i := range fns {
			fns[i] = func(*Ctx) { spinFor(20 * time.Microsecond) }
		}
		c.Parallel(fns...)
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := p.parked.Load(); n != 4 {
		t.Fatalf("%d of 4 idle workers parked", n)
	}
	// The process's other threads (GC, a neighbouring test's leftovers)
	// may use a little CPU in one window; an idle pool that polls uses
	// it in every window.
	var cpu time.Duration
	for try := 0; try < 3; try++ {
		s0, c0 := p.Stats(), processCPU(t)
		time.Sleep(200 * time.Millisecond)
		s1 := p.Stats()
		cpu = processCPU(t) - c0
		if s1 != s0 {
			t.Fatalf("an idle pool's counters moved: %+v -> %+v", s0, s1)
		}
		if cpu < 2*time.Millisecond {
			return
		}
	}
	t.Fatalf("an idle pool used %v of CPU in 200ms, want < 2ms", cpu)
}
