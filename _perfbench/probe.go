package main

import (
	"time"

	"github.com/easyio-sim/easyio/internal/sim"
)

// Kernel microprobes on the public sim API, each the median of
// probeReps repetitions.

const probeReps = 3

// probeChain times chain-of-one dispatch: a single self-rescheduling
// timer, the wheel's worst case (every event is the only one resident).
func probeChain() float64 {
	const events = 1 << 20
	e := sim.NewEngine()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < events {
			e.After(1, fn)
		}
	}
	e.After(1, fn)
	t0 := time.Now()
	e.Run()
	return float64(time.Since(t0).Nanoseconds()) / events
}

// probeWheel times dispatch with 4096 resident timers: that many
// self-rescheduling chains with spread deltas keep the wheel populated.
func probeWheel(seed uint64) float64 {
	const timers, events = 4096, 1 << 20
	e := sim.NewEngine()
	n := 0
	x := seed | 1
	for i := 0; i < timers; i++ {
		// xorshift: deltas in [1, 65536] ns, fixed per chain.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		d := sim.Duration(x%65536 + 1)
		var fn func()
		fn = func() {
			n++
			if n < events {
				e.After(d, fn)
			}
		}
		e.After(d, fn)
	}
	t0 := time.Now()
	e.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// probeSwitch times the Proc.Sleep round trip (schedule, park, resume).
func probeSwitch() float64 {
	const switches = 1 << 18
	e := sim.NewEngine()
	e.StartProc("warm", func(p *sim.Proc) { p.Sleep(1) })
	e.Run()
	var el time.Duration
	e.StartProc("probe", func(p *sim.Proc) {
		t0 := time.Now()
		for i := 0; i < switches; i++ {
			p.Sleep(1)
		}
		el = time.Since(t0)
	})
	e.Run()
	e.Shutdown()
	return float64(el.Nanoseconds()) / switches
}

// kernelProbes returns the sim.probe.* metrics.
func kernelProbes(seed uint64) map[string]float64 {
	rep := func(fn func() float64) float64 {
		xs := make([]float64, probeReps)
		for i := range xs {
			xs[i] = fn()
		}
		return median(xs)
	}
	return map[string]float64{
		"sim.probe.chain_ns_per_event":   rep(probeChain),
		"sim.probe.wheel4k_ns_per_event": rep(func() float64 { return probeWheel(seed) }),
		"sim.probe.switch_ns":            rep(probeSwitch),
	}
}
