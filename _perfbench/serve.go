package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"github.com/easyio-sim/easyio/internal/bench"
	"github.com/easyio-sim/easyio/internal/core"
	"github.com/easyio-sim/easyio/internal/service"
	"github.com/easyio-sim/easyio/internal/sim"
)

// serve-ladder: the three-tenant EasyIO serving cell on 4 cores under
// EWMA admission, one fresh instance per step of a fixed bulk-load
// ladder. Latency runs from each request's scheduled arrival.

var serveLadder = []float64{0.5, 1.0, 1.5, 2.0}

const (
	serveCores   = 4
	serveSLO     = 200 * sim.Microsecond
	serveMeasure = 250 * sim.Millisecond
)

var serveTenantNames = []string{"web", "media", "archive"}

func serveTenants(mult float64) []service.TenantSpec {
	return []service.TenantSpec{
		{
			Name:     "web",
			Class:    core.ClassL,
			Priority: 2,
			SLO:      serveSLO,
			Arrival:  service.ArrivalSpec{Kind: service.ArrivalPoisson, Rate: 60_000},
			Mix:      service.Mix{Name: "point-read", ReadSize: 4 << 10, Compute: sim.Microsecond},
		},
		{
			Name:     "media",
			Class:    core.ClassB,
			Priority: 1,
			Arrival:  service.ArrivalSpec{Kind: service.ArrivalBurst, Rate: 1_500 * mult, Period: 2 * sim.Millisecond, Duty: 0.25},
			Mix:      service.Mix{Name: "ingest", WriteSize: 1 << 20, WriteEvery: 1},
		},
		{
			Name:     "archive",
			Class:    core.ClassB,
			Priority: 0,
			Arrival:  service.ArrivalSpec{Kind: service.ArrivalDiurnal, Rate: 1_500 * mult, Period: 10 * sim.Millisecond, Amplitude: 0.8},
			Mix:      service.Mix{Name: "backup", WriteSize: 1 << 20, WriteEvery: 1},
		},
	}
}

func runServe(cfg iterConfig) *iterResult {
	return runServeLadder(cfg, serveLadder, serveMeasure)
}

func runServeLadder(cfg iterConfig, ladder []float64, measure sim.Duration) *iterResult {
	it := newIterResult()
	h := fnv.New64a()
	var steps []ladderStep
	var arrived, completed int64
	for si, mult := range ladder {
		tenants := serveTenants(mult)
		a0 := cfg.tr.allocBytes()
		t0 := time.Now()
		inst, err := bench.NewInstance(bench.SysEasyIO, serveCores, bench.InstanceOptions{Seed: cfg.seed})
		if err != nil {
			panic(err)
		}
		t1 := time.Now()
		srv, err := service.New(inst.Eng, inst.RT, inst.CoreFS, service.Config{
			Cores:   serveCores,
			Tenants: tenants,
			Policy:  service.PolicySpec{Kind: service.PolicyEWMA},
			Warmup:  2 * sim.Millisecond,
			Measure: measure,
			Seed:    cfg.seed,
		})
		if err != nil {
			panic(err)
		}
		t2 := time.Now()
		it.lt.setupAlloc += cfg.tr.allocBytes() - a0
		var fsBytes int64
		srv.OnComplete = func(ti int, _ bool, _ sim.Duration) {
			m := tenants[ti].Mix
			fsBytes += int64(m.ReadSize + m.WriteSize)
		}
		srv.StartArrivals()
		srv.StartManager()
		inst.Eng.RunUntil(srv.End())
		t3 := time.Now()
		res := srv.Finish()
		cc := collect(inst)
		inst.Close()
		t4 := time.Now()

		name := fmt.Sprintf("serve/%.2fx", mult)
		cfg.tr.hostSpan("setup.instance", si, t0, t1)
		cfg.tr.hostSpan("setup.prefill", si, t1, t2)
		cfg.tr.hostSpan("sim.run", si, t2, t3)
		cfg.tr.hostSpan("teardown", si, t3, t4)
		cfg.tr.cell(name, nil)
		it.lt.instanceS += t1.Sub(t0).Seconds()
		it.lt.prefillS += t2.Sub(t1).Seconds()
		it.runS += t3.Sub(t2).Seconds()
		it.lt.teardownS += t4.Sub(t3).Seconds()
		it.lt.addCell(&cc)
		it.lt.fsBytesDMA += fsBytes
		it.blimit = cc.bLimit

		fmt.Fprintf(h, "%s:%x;", name, res.Digest())
		hashCounters(h, &cc)
		step := ladderStep{load: mult}
		for i := range res.Tenants {
			tr := &res.Tenants[i]
			if tr.Arrived != tr.Admitted+tr.Shed {
				it.fail("%s/%s: arrived %d != admitted %d + shed %d", name, tr.Name, tr.Arrived, tr.Admitted, tr.Shed)
			}
			if tr.Admitted != tr.Completed+tr.Unfinished {
				it.fail("%s/%s: admitted %d != completed %d + unfinished %d", name, tr.Name, tr.Admitted, tr.Completed, tr.Unfinished)
			}
			step.refused += tr.Shed
			step.unfinished += tr.Unfinished
			arrived += tr.Arrived
			completed += tr.Completed
			if tr.SLO > 0 {
				step.webP99OK = tr.Lat.P99() <= tr.SLO
			}
		}
		steps = append(steps, step)
		if si == len(ladder)-1 {
			serveTop(it, res, &cc)
		}
	}
	it.digest = h.Sum64()
	it.ops = completed
	it.attempted = arrived
	it.e2e["served_frac"] = float64(completed) / float64(arrived)
	it.layer["vt.capacity_load"] = capacityLoad(steps)
	it.skip("vt.speedup_vs_nova", "service layer runs on EasyIO only")
	it.skip("vt.paper_err", "serve-ladder has no paper reference (unvalidated)")
	return it
}

// serveTop derives the top step's end-to-end VT metrics and the service
// layer's per-tenant accounting.
func serveTop(it *iterResult, res *service.Result, cc *cellCounters) {
	span := res.Span.Seconds()
	var bulkDone int64
	for i := range res.Tenants {
		tr := &res.Tenants[i]
		p := "service." + tr.Name
		it.layer[p+".arrived"] = float64(tr.Arrived)
		it.layer[p+".shed"] = float64(tr.Shed)
		it.layer[p+".unfinished"] = float64(tr.Unfinished)
		met := tr.Completed // tenants without an SLO: every completion counts
		if tr.SLO > 0 {
			met = tr.SLOMet
		}
		if tr.Completed > 0 {
			it.layer[p+".slo_met_frac"] = float64(met) / float64(tr.Completed)
		}
		if tr.Class == core.ClassB {
			bulkDone += tr.Completed
			continue
		}
		n := tr.Lat.Count()
		it.e2e["vt_read_kops"] = float64(tr.Completed) / span / 1e3
		it.pct("vt_p50_us", n, 50, tr.Lat.P50().Micros())
		it.pct("vt_p99_us", n, 99, tr.Lat.P99().Micros())
		it.pct("vt.p999_us", n, 99.9, tr.Lat.P999().Micros())
		it.layer["vt.p99_samples"] = float64(n)
	}
	it.e2e["vt_write_kops"] = float64(bulkDone) / span / 1e3
	it.e2e["vt_bulk_mb_per_s"] = float64(bulkDone) * (1 << 20) / span / 1e6
	it.e2e["vt_cores_at_peak"] = cc.busyFrac * float64(cc.cores)
}
