package serve

import (
	"errors"
	"time"

	"repro/internal/obs"
)

// This file is the SLO burn-rate monitor: a background sampler over the
// request_seconds histogram that estimates the configured latency
// quantile over a fast and a slow window and, when BOTH exceed the
// objective, asks the flight recorder for an evidence bundle. Two
// windows is the standard burn-rate discipline — the fast window makes
// the alarm prompt, the slow window makes it ignore one bad second —
// and the sample floor keeps an idle server's noise from ever firing.

// sloSample is one timestamped cumulative snapshot of request_seconds.
type sloSample struct {
	t time.Time
	h obs.HistogramSnapshot
}

type sloMonitor struct {
	s       *Server
	stop_   chan struct{}
	done    chan struct{}
	samples []sloSample
}

func newSLOMonitor(s *Server) *sloMonitor {
	return &sloMonitor{
		s:     s,
		stop_: make(chan struct{}),
		done:  make(chan struct{}),
	}
}

func (m *sloMonitor) start() {
	go m.run()
}

func (m *sloMonitor) stop() {
	close(m.stop_)
	<-m.done
}

func (m *sloMonitor) run() {
	defer close(m.done)
	cfg := m.s.cfg
	tick := time.NewTicker(cfg.sloPoll)
	defer tick.Stop()
	burns := m.s.reg.Counter("slo_burn_violations")
	p99 := m.s.reg.Gauge("slo_fast_quantile_us")
	for {
		select {
		case <-m.stop_:
			return
		case <-tick.C:
			m.poll(time.Now(), burns, p99)
		}
	}
}

// poll takes one cumulative snapshot, trims the ring to the slow
// window, and evaluates both windows against the objective.
func (m *sloMonitor) poll(now time.Time, burns *obs.Counter, fastGauge *obs.Gauge) {
	cfg := m.s.cfg
	cur := sloSample{t: now, h: m.s.reg.Snapshot().Histograms["request_seconds"]}
	m.samples = append(m.samples, cur)
	// Keep one sample strictly older than the slow window as its
	// baseline; everything older than that is dead weight.
	cut := 0
	for cut < len(m.samples)-1 && now.Sub(m.samples[cut+1].t) >= cfg.SLOSlowWindow {
		cut++
	}
	m.samples = m.samples[cut:]

	fastQ, fastN, fastOK := m.window(cur, cfg.SLOFastWindow)
	slowQ, slowN, slowOK := m.window(cur, cfg.SLOSlowWindow)
	if fastOK {
		fastGauge.Set(int64(fastQ * 1e6))
	}
	if !fastOK || !slowOK {
		return
	}
	if fastN < cfg.sloMinSamples || slowN < cfg.sloMinSamples {
		return
	}
	obj := cfg.SLOObjective.Seconds()
	if fastQ <= obj || slowQ <= obj {
		return
	}
	burns.Inc()
	if _, err := m.s.flight.Dump("slo-burn", false); err != nil && !errors.Is(err, obs.ErrDumpSuppressed) {
		cfg.Logf("recmatd: slo burn dump failed: %v", err)
	} else if err == nil {
		cfg.Logf("recmatd: slo burn: p%g %.1fms/%.1fms over %v/%v exceeds %v; flight bundle dumped",
			cfg.SLOQuantile*100, fastQ*1e3, slowQ*1e3, cfg.SLOFastWindow, cfg.SLOSlowWindow, cfg.SLOObjective)
	}
}

// window estimates the quantile of the observations recorded inside the
// trailing window of the given width: the delta between the current
// snapshot and the newest sample at least that old. Reports !ok until
// the ring covers the window.
func (m *sloMonitor) window(cur sloSample, width time.Duration) (q float64, n int64, ok bool) {
	var base *sloSample
	for i := range m.samples {
		if cur.t.Sub(m.samples[i].t) >= width {
			base = &m.samples[i]
		} else {
			break
		}
	}
	if base == nil {
		return 0, 0, false
	}
	d := cur.h.Sub(base.h)
	return d.Quantile(m.s.cfg.SLOQuantile), d.Count, true
}
