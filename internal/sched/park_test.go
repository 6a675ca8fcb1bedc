package sched

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// spinFor busy-waits: on a host whose sub-millisecond timers take a
// millisecond, time.Sleep cannot make a 100 µs gap.
func spinFor(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

func TestStealSweepFindsTheOnlyTask(t *testing.T) {
	// A parker's last sweep is its only look: one task on one of eight
	// deques must be found by every thief's first sweep, whatever its
	// seed. (The 2·W random draws this replaced missed it once in 16 at
	// W = 2.) The pool has no goroutines; the test drives findTask.
	const workers = 8
	p := &Pool{inject: make(chan *task)}
	for i := 0; i < workers; i++ {
		p.workers = append(p.workers, &worker{pool: p, id: i})
	}
	rng := rand.New(rand.NewSource(1))
	only := new(task)
	for trial := 0; trial < 1000; trial++ {
		thief := p.workers[rng.Intn(workers)]
		victim := p.workers[(thief.id+1+rng.Intn(workers-1))%workers]
		thief.seed = rng.Uint64() | 1
		victim.dq = append(victim.dq, only)
		if got := thief.findTask(); got != only {
			t.Fatalf("trial %d: worker %d's sweep (seed %#x) missed the task on worker %d", trial, thief.id, thief.seed, victim.id)
		}
	}
	if got := p.steals.Load(); got != 1000 {
		t.Fatalf("steals = %d, want 1000", got)
	}
	// One worker has nobody to steal from.
	solo := &Pool{inject: make(chan *task)}
	solo.workers = []*worker{{pool: solo, seed: 1}}
	if got := solo.workers[0].findTask(); got != nil {
		t.Fatalf("a lone worker found %v", got)
	}
}

func TestSpawnWakesParkedWorker(t *testing.T) {
	// The latency the wake channel exists for: from a spawn on an idle
	// pool to the spawned task's first instruction on the other worker.
	// With idle workers polling on a 200 µs timer it was the timer's
	// real period, ≥ 500 µs on any host that rounds short timers up to
	// a millisecond.
	if raceEnabled || testing.Short() {
		t.Skip("a latency bound: not under -race or -short")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >= 2 CPUs")
	}
	p := NewPool(2)
	defer p.Close()
	const trials = 200
	lat := make([]time.Duration, 0, trials)
	for i := 0; i < trials; i++ {
		time.Sleep(5 * time.Millisecond) // both workers park
		var spawned time.Time
		var started atomic.Int64 // ns after spawned; 0 = not yet
		_, _, err := p.Run(func(c *Ctx) {
			spawned = time.Now()
			c.Parallel(
				func(*Ctx) {
					// Yielding, so that what is timed is this package's
					// wake-up and not how long the kernel takes to put a
					// second thread on a CPU that has been idle.
					for started.Load() == 0 {
						runtime.Gosched()
					}
				},
				func(*Ctx) { started.Store(int64(time.Since(spawned)) + 1) },
			)
		})
		if err != nil {
			t.Fatal(err)
		}
		lat = append(lat, time.Duration(started.Load()))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	t.Logf("spawn→start on a parked worker: p50 %v p90 %v", lat[trials/2], lat[trials*9/10])
	if lat[trials/2] >= 300*time.Microsecond {
		t.Fatalf("median spawn→start %v, want < 300µs", lat[trials/2])
	}
}

func TestStressParkWake(t *testing.T) {
	// Runs of one to three tiny spawns with gaps about as long as the
	// spin budgets, so that workers park between runs and inside them
	// and every wake-up races a worker on its way into park: a spawn
	// whose inline sibling outlasts the gap races the top-level loops,
	// a stolen child that outlasts it races its parent's sync. A lost
	// wake-up shows as a run that never returns.
	if !faultinject.Enabled() {
		faultinject.Configure(faultinject.Config{DelayProb: 0.005, Delay: 50 * time.Microsecond, Seed: 7})
		defer faultinject.Disable()
	}
	p := NewPool(4)
	defer p.Close()
	rng := rand.New(rand.NewSource(3))
	// Five gaps in six are empty: back-to-back spawns are a case too,
	// and the test runs sixty times under `make wakegate`.
	gap := func() time.Duration {
		if rng.Intn(6) != 0 {
			return 0
		}
		return time.Duration(rng.Intn(300)) * time.Microsecond
	}
	var ran, want int64
	done := make(chan error, 1)
	// One watchdog timer for all the runs: 20,000 abandoned time.After
	// timers would keep firing into the tests that follow.
	watchdog := time.NewTimer(time.Hour)
	watchdog.Stop()
	for i := 0; i < 20000; i++ {
		gaps := make([]time.Duration, 1+rng.Intn(3))
		for k := range gaps {
			gaps[k] = gap()
		}
		go func() {
			_, _, err := p.Run(func(c *Ctx) {
				for k, g := range gaps {
					var stolen atomic.Bool
					if k%2 == 0 {
						c.Parallel(
							func(*Ctx) { spinFor(g) },
							func(*Ctx) { atomic.AddInt64(&ran, 1) })
						continue
					}
					c.Parallel(
						func(*Ctx) {
							// Give the child away (unless a fault ate it).
							for t0 := time.Now(); !stolen.Load() && time.Since(t0) < time.Millisecond; {
								runtime.Gosched()
							}
						},
						func(*Ctx) {
							stolen.Store(true)
							spinFor(g)
							atomic.AddInt64(&ran, 1)
						})
				}
			})
			done <- err
		}()
		want += int64(len(gaps))
		watchdog.Reset(2 * time.Second)
		select {
		case err := <-done:
			if !watchdog.Stop() {
				<-watchdog.C
			}
			var fault *faultinject.Fault
			if err != nil && !errors.As(err, &fault) {
				t.Fatalf("run %d: %v", i, err)
			} else if err != nil {
				// An injected panic cut the run short.
				want = atomic.LoadInt64(&ran)
			}
		case <-watchdog.C:
			t.Fatalf("run %d did not return within 2s: %+v, %d parked", i, p.Stats(), p.parked.Load())
		}
		spinFor(gap())
	}
	if got := atomic.LoadInt64(&ran); got != want {
		t.Fatalf("ran %d children, want %d", got, want)
	}
	if st := p.Stats(); st.Parks == 0 || st.Wakes == 0 {
		t.Fatalf("the stress never parked or never woke: %+v", st)
	}
}

func TestCloseAndCancelWakeParkedSync(t *testing.T) {
	// A frame parked at its sync is released by its last child, and by
	// nothing else — so cancellation and Close must reach it through
	// the child they unblock, with the typed errors of
	// TestRunCtxCancelMidRun and TestCloseDuringRunCtxAbortsTyped.
	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		name    string
		want    error
		release func(p *Pool, cancel context.CancelFunc)
	}{
		{"cancel", context.Canceled, func(_ *Pool, cancel context.CancelFunc) { cancel() }},
		{"close", ErrPoolClosed, func(p *Pool, _ context.CancelFunc) { p.Close() }},
	} {
		p := NewPool(2)
		ctx, cancel := context.WithCancel(context.Background())
		var childUp atomic.Bool
		base := make(chan int64, 1)
		done := make(chan error, 1)
		go func() {
			_, _, err := p.RunCtx(ctx, func(c *Ctx) {
				c.Parallel(
					func(*Ctx) {
						// Hold the frame until the other worker has the
						// child: from here on only the sync can park.
						for !childUp.Load() {
							runtime.Gosched()
						}
						base <- p.Stats().Parks
					},
					func(c *Ctx) {
						childUp.Store(true)
						for !c.Cancelled() {
							runtime.Gosched()
						}
					},
				)
			})
			done <- err
		}()
		b := <-base
		for deadline := time.Now().Add(5 * time.Second); p.Stats().Parks == b; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the syncing frame never parked", tc.name)
			}
			time.Sleep(100 * time.Microsecond)
		}
		tc.release(p, cancel)
		select {
		case err := <-done:
			if !errors.Is(err, tc.want) {
				t.Fatalf("%s: run returned %v, want %v", tc.name, err, tc.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the parked frame was not released", tc.name)
		}
		cancel()
		p.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+2 {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked: %d -> %d", before, g)
	}
}

func TestParkSpansAreTraced(t *testing.T) {
	// A parked interval is a span on the worker's track — alone on it
	// for the top-level loop, inside the task span for a sync — and the
	// export is a trace Perfetto loads.
	tr := obs.NewTracer(2, 0)
	if err := obs.Install(tr); err != nil {
		t.Fatal(err)
	}
	defer obs.Uninstall(tr)
	p := NewPool(2) // after the tracer: the workers' first parks are traced too
	defer p.Close()
	deadline := time.Now().Add(10 * time.Second)
	waitFor := func(cond func() bool) {
		for !cond() && time.Now().Before(deadline) {
			runtime.Gosched()
		}
	}
	const runs = 5
	for i := 0; i < runs; i++ {
		waitFor(func() bool { return p.parked.Load() == 2 })
		var stolen atomic.Bool
		if _, _, err := p.Run(func(c *Ctx) {
			c.Parallel(
				func(*Ctx) { waitFor(stolen.Load) },
				func(*Ctx) {
					// With this worker here and the other at the sync,
					// the next park is the sync's.
					base := p.Stats().Parks
					stolen.Store(true)
					waitFor(func() bool { return p.Stats().Parks > base })
				})
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !time.Now().Before(deadline) {
		t.Fatal("the pool did not park as driven")
	}
	obs.Uninstall(tr)
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	// Each run ends two top-level parks and one sync park.
	if sum.ByName["park"] < 3*runs {
		t.Fatalf("%d park spans, want at least %d: %v", sum.ByName["park"], 3*runs, sum.ByName)
	}
}

func TestShieldOutlivesCancelNotClose(t *testing.T) {
	// A shielded frame's spawns run after the run's own cancellation —
	// every one of them, work and span folded back into the frame that
	// shielded them — where plain Parallel's are dropped; the run still
	// reports the cancellation. Closing the pool retires them all the
	// same: a closed pool runs nothing.
	const n = 16
	children := func(ran *atomic.Int64) []func(*Ctx) {
		fns := make([]func(*Ctx), n)
		for i := range fns {
			fns[i] = func(c *Ctx) {
				ran.Add(1)
				c.Account(1)
			}
		}
		return fns
	}
	p := NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var shielded, plain atomic.Int64
	var seen bool
	work, span, err := p.RunCtx(ctx, func(c *Ctx) {
		cancel()
		seen = c.Cancelled()
		c.Shield(func(c *Ctx) {
			if c.Cancelled() {
				t.Error("the shielded frame sees the run's cancellation")
			}
			c.Parallel(children(&shielded)...)
		})
		c.Parallel(children(&plain)...)
	})
	if !errors.Is(err, context.Canceled) || !seen {
		t.Fatalf("run returned %v (root saw cancellation: %v), want context.Canceled", err, seen)
	}
	if shielded.Load() != n || plain.Load() != 0 {
		t.Fatalf("%d shielded and %d plain children ran after the cancel, want %d and 0", shielded.Load(), plain.Load(), n)
	}
	if work != n || span != 1 {
		t.Fatalf("work %g span %g folded back, want %d and 1", work, span, n)
	}

	// One worker: the inline child closes the pool, its siblings wait on
	// the deque and are retired, not run.
	solo := NewPool(1)
	var ran atomic.Int64
	closed := make(chan struct{})
	_, _, err = solo.Run(func(c *Ctx) {
		c.Shield(func(c *Ctx) {
			fns := children(&ran)
			fns[0] = func(*Ctx) {
				go func() {
					solo.Close()
					close(closed)
				}()
				for !solo.Closed() {
					runtime.Gosched()
				}
			}
			c.Parallel(fns...)
		})
		if !c.Cancelled() {
			t.Error("the run does not see the pool close")
		}
	})
	<-closed
	if !errors.Is(err, ErrPoolClosed) || ran.Load() != 0 {
		t.Fatalf("closing under a shielded frame: err %v, %d children ran; want ErrPoolClosed and none", err, ran.Load())
	}
}
