package main

import (
	"fmt"
	"hash"
	"math"

	"github.com/easyio-sim/easyio/internal/bench"
	"github.com/easyio-sim/easyio/internal/dma"
	"github.com/easyio-sim/easyio/internal/nova"
)

// cellCounters are the per-layer observables read from one cell's public
// accessors after its run: event dispatch, uthread switching, CPU
// occupancy, DMA traffic and channel-manager actions.
type cellCounters struct {
	events   uint64  // Engine.Sequence
	switches int64   // Σ Core.Switches
	busyFrac float64 // Runtime.BusyFraction (VT)
	cores    int     // worker cores of the cell
	dmaDescs uint64  // Σ Channel.SubmittedSN
	dmaBytes int64   // Σ Channel.BytesCompleted
	bBytes   int64   // B-channel BytesCompleted (EasyIO)
	suspends int64   // Manager.SuspendCount (EasyIO)
	bLimit   float64 // Manager.BLimit (EasyIO)
	vtNow    int64   // Engine.Now at collection
	dma      bool    // the system moves data with DMA engines
}

// dmaEngines returns the DMA engines an instance moves data with: the
// channel manager's engines for EasyIO, the synchronous mover's for
// NOVA-DMA, none otherwise.
func dmaEngines(inst *bench.Instance) []*dma.Engine {
	var out []*dma.Engine
	seen := map[*dma.Engine]bool{}
	add := func(e *dma.Engine) {
		if e != nil && !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	if inst.CoreFS != nil {
		mgr := inst.CoreFS.Manager()
		for _, r := range mgr.LChannels() {
			add(r.Engine)
		}
		add(mgr.BChannel().Engine)
		return out
	}
	if fs, ok := inst.FS.(*nova.FS); ok {
		if m, ok := fs.Mover().(*nova.SyncDMAMover); ok {
			for _, e := range m.Engines {
				add(e)
			}
		}
	}
	return out
}

// collect reads a cell's counters. Call after the run, before Close.
func collect(inst *bench.Instance) cellCounters {
	c := cellCounters{
		events:   inst.Eng.Sequence(),
		busyFrac: inst.RT.BusyFraction(),
		cores:    inst.Cores,
		vtNow:    int64(inst.Eng.Now()),
	}
	for i := 0; i < inst.RT.NumCores(); i++ {
		c.switches += inst.RT.Core(i).Switches()
	}
	for _, e := range dmaEngines(inst) {
		c.dma = true
		for i := 0; i < e.NumChannels(); i++ {
			ch := e.Channel(i)
			c.dmaDescs += ch.SubmittedSN()
			c.dmaBytes += ch.BytesCompleted()
		}
	}
	if inst.CoreFS != nil {
		mgr := inst.CoreFS.Manager()
		c.bBytes = mgr.BChannel().Chan.BytesCompleted()
		c.suspends = mgr.SuspendCount()
		c.bLimit = mgr.BLimit()
	}
	return c
}

// hashCounters folds the VT observables of c into h.
func hashCounters(h hash.Hash64, c *cellCounters) {
	fmt.Fprintf(h, "ev=%d;sw=%d;busy=%x;dd=%d;db=%d;bb=%d;su=%d;bl=%x;now=%d|",
		c.events, c.switches, math.Float64bits(c.busyFrac), c.dmaDescs, c.dmaBytes,
		c.bBytes, c.suspends, math.Float64bits(c.bLimit), c.vtNow)
}

// layerTotals aggregates cell counters and host phase timings over one
// iteration of a workload.
type layerTotals struct {
	cells      int
	events     uint64
	switches   int64
	busySum    float64
	dmaDescs   uint64
	dmaBytes   int64
	bBytes     int64
	suspends   int64
	fsBytesDMA int64 // FS payload bytes on systems that have DMA engines
	fs         fsCounts
	instanceS  float64 // host: NewInstance
	prefillS   float64 // host: driver setup (file creation, prefill)
	teardownS  float64 // host: Instance.Close
	setupAlloc uint64  // heap bytes allocated during setup (traced runs)
}

func (l *layerTotals) addCell(c *cellCounters) {
	l.cells++
	l.events += c.events
	l.switches += c.switches
	l.busySum += c.busyFrac
	l.dmaDescs += c.dmaDescs
	l.dmaBytes += c.dmaBytes
	l.bBytes += c.bBytes
	l.suspends += c.suspends
}
