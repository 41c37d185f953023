package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"github.com/easyio-sim/easyio/internal/bench"
	"github.com/easyio-sim/easyio/internal/fxmark"
	"github.com/easyio-sim/easyio/internal/sim"
)

// fxmark-16k: Fig 9's two 16 KB panels (DWAL private-file appends, DRBL
// private-file block reads) for the four systems over the Fig 9 core
// sweep, every cell an unlinked domain of one sim.Cluster.

var fxCores = []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 24, 30, 36}

const (
	fxIOSize  = 16 << 10
	fxMeasure = 5 * sim.Millisecond
	// Paper reference values (EXPERIMENTS.md, Fig 9 16 KB write panel).
	paperFxWriteRatio = 1.13
	paperFxCoresPeak  = 6
)

type fxCell struct {
	wl    fxmark.Workload
	sys   bench.System
	cores int
	name  string
	inst  *bench.Instance
	fs    *countingFS
	pend  *fxmark.Pending
}

func fxCells() []*fxCell {
	var cells []*fxCell
	for _, wl := range []fxmark.Workload{fxmark.DWAL, fxmark.DRBL} {
		for _, sys := range bench.AllSystems() {
			for _, c := range fxCores {
				if c > bench.MaxWorkerCores(sys) {
					continue
				}
				cells = append(cells, &fxCell{wl: wl, sys: sys, cores: c,
					name: fmt.Sprintf("%s-16k/%s/%d", wl, sys, c)})
			}
		}
	}
	return cells
}

func runFxmark(cfg iterConfig) *iterResult {
	return runFxmarkCells(cfg, fxCells(), fxMeasure)
}

// runFxmarkCells builds every cell serially on the calling goroutine
// (each on its domain's engine), then times Cluster.Run alone.
func runFxmarkCells(cfg iterConfig, cells []*fxCell, measure sim.Duration) *iterResult {
	it := newIterResult()
	cl := sim.NewCluster(cfg.workers)
	for ci, c := range cells {
		d := cl.AddDomain(c.name, nil)
		a0 := cfg.tr.allocBytes()
		t0 := time.Now()
		inst, err := bench.NewInstance(c.sys, c.cores, bench.InstanceOptions{Seed: cfg.seed, Engine: d.Engine()})
		if err != nil {
			panic(err)
		}
		t1 := time.Now()
		c.inst = inst
		c.fs = newCountingFS(inst.FS, cfg.tr != nil)
		c.pend, err = fxmark.Start(inst.Eng, inst.RT, c.fs, fxmark.Config{
			Workload: c.wl,
			Cores:    c.cores,
			Uthreads: inst.Uthreads(),
			IOSize:   fxIOSize,
			Measure:  measure,
			Seed:     cfg.seed,
		})
		if err != nil {
			panic(err)
		}
		t2 := time.Now()
		it.lt.setupAlloc += cfg.tr.allocBytes() - a0
		d.SetDeadline(c.pend.End())
		it.lt.instanceS += t1.Sub(t0).Seconds()
		it.lt.prefillS += t2.Sub(t1).Seconds()
		cfg.tr.hostSpan("setup.instance", ci, t0, t1)
		cfg.tr.hostSpan("setup.prefill", ci, t1, t2)
	}
	r0 := time.Now()
	cl.Run()
	r1 := time.Now()
	it.runS = r1.Sub(r0).Seconds()
	cfg.tr.hostSpan("sim.run", -1, r0, r1)

	h := fnv.New64a()
	thr := map[string][]float64{}
	for ci, c := range cells {
		res := c.pend.Result()
		cc := collect(c.inst)
		td0 := time.Now()
		c.inst.Close()
		td1 := time.Now()
		it.lt.teardownS += td1.Sub(td0).Seconds()
		cfg.tr.hostSpan("teardown", ci, td0, td1)
		cfg.tr.cell(c.name, c.fs.rec)

		it.lt.addCell(&cc)
		it.lt.fs.add(&c.fs.c)
		if cc.dma {
			it.lt.fsBytesDMA += c.fs.c.bytes
		}
		it.addFSRecorder(c.fs.rec)
		if res.Bytes != res.Ops*fxIOSize {
			it.fail("%s: Bytes %d != Ops %d x IOSize %d", c.name, res.Bytes, res.Ops, fxIOSize)
		}
		if res.Ops <= 0 {
			it.fail("%s: no operations completed", c.name)
		}
		it.ops += res.Ops
		it.attempted += c.fs.c.total()
		fmt.Fprintf(h, "%s:%d,%d,%d,%d,%d,%d,%d;", c.name, res.Ops, res.Bytes, res.Lat.Count(),
			res.Lat.P50(), res.Lat.P99(), res.Lat.Mean(), res.Lat.Max())
		hashCounters(h, &cc)
		key := fmt.Sprintf("%s/%s", c.wl, c.sys)
		thr[key] = append(thr[key], res.Throughput())
		if c.sys == bench.SysEasyIO {
			it.blimit = cc.bLimit
		}
	}
	it.digest = h.Sum64()
	it.failed += it.lt.fs.errors
	if it.attempted > 0 {
		it.e2e["served_frac"] = 1 - float64(it.lt.fs.errors)/float64(it.attempted)
	}

	sweep := func(wl fxmark.Workload, sys bench.System) []int {
		var cs []int
		for _, c := range cells {
			if c.wl == wl && c.sys == sys {
				cs = append(cs, c.cores)
			}
		}
		return cs
	}
	ezW := fmt.Sprintf("%s/%s", fxmark.DWAL, bench.SysEasyIO)
	ezR := fmt.Sprintf("%s/%s", fxmark.DRBL, bench.SysEasyIO)
	novaW := fmt.Sprintf("%s/%s", fxmark.DWAL, bench.SysNOVA)
	corePeak, wPeak := coresAtPeak(sweep(fxmark.DWAL, bench.SysEasyIO), thr[ezW], 0.97)
	_, rPeak := coresAtPeak(sweep(fxmark.DRBL, bench.SysEasyIO), thr[ezR], 0.97)
	_, novaPeak := coresAtPeak(sweep(fxmark.DWAL, bench.SysNOVA), thr[novaW], 0.97)

	var peakCell *fxCell
	for _, c := range cells {
		if c.wl == fxmark.DWAL && c.sys == bench.SysEasyIO && c.cores == corePeak {
			peakCell = c
		}
	}
	if peakCell == nil {
		it.fail("no EasyIO DWAL cell at %d cores", corePeak)
		return it
	}
	lat := &peakCell.pend.Result().Lat
	n := int64(lat.Count())
	it.e2e["vt_write_kops"] = wPeak / 1e3
	it.e2e["vt_read_kops"] = rPeak / 1e3
	it.e2e["vt_cores_at_peak"] = float64(corePeak)
	it.e2e["vt_bulk_mb_per_s"] = wPeak * fxIOSize / 1e6
	it.pct("vt_p50_us", n, 50, lat.P50().Micros())
	it.pct("vt_p99_us", n, 99, lat.P99().Micros())
	it.pct("vt.p999_us", n, 99.9, lat.Percentile(99.9).Micros())
	it.layer["vt.p99_samples"] = float64(n)
	ratio := wPeak / novaPeak
	it.layer["vt.speedup_vs_nova"] = ratio
	it.layer["vt.paper_err"] = paperErr([]paperRef{
		{"peak write ratio vs NOVA", paperFxWriteRatio, ratio},
		{"EasyIO cores at write peak", paperFxCoresPeak, float64(corePeak)},
	})
	it.skip("vt.capacity_load", "closed-loop sweep has no load ladder")
	it.skipService("closed-loop FxMark drives no service layer")
	return it
}
