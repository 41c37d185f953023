package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"github.com/easyio-sim/easyio/internal/apps"
	"github.com/easyio-sim/easyio/internal/bench"
	"github.com/easyio-sim/easyio/internal/filebench"
	"github.com/easyio-sim/easyio/internal/sim"
	"github.com/easyio-sim/easyio/internal/stats"
)

// apps-16c: six Fig 10 applications on NOVA and EasyIO at 16 worker
// cores. Five read-compute-write loops (apps.Run) and Filebench
// Fileserver (filebench.Run). JPGDecoder needs seconds of VT per sample;
// Webserver has no numeric factor in the paper.

const (
	appsCores   = 16
	appsMeasure = 1000 * sim.Millisecond
)

// appDef is one application of the workload with its paper speedup over
// NOVA (EXPERIMENTS.md "Paper" column) and bytes written per op.
type appDef struct {
	name       string
	spec       *apps.Spec // nil: Filebench Fileserver
	paper      float64
	writeBytes int64
}

func appDefs() []appDef {
	sp := func(s apps.Spec) *apps.Spec { return &s }
	return []appDef{
		{"Snappy", sp(apps.Snappy), 2.1, int64(apps.Snappy.WriteSize)},
		{"AES", sp(apps.AES), 1.0, int64(apps.AES.WriteSize)},
		{"Grep", sp(apps.Grep), 2.1, 0},
		{"KNN", sp(apps.KNN), 1.5, 0},
		{"BFS", sp(apps.BFS), 2.3, 0},
		// Fileserver writes a whole 1 MB file and appends 16 KB per op
		// (filebench defaults).
		{"Fileserver", nil, 2.3, 1<<20 + 16<<10},
	}
}

type appOut struct {
	ops  int64
	thr  float64
	lat  *stats.Recorder
	busy float64
}

func runApps(cfg iterConfig) *iterResult {
	return runAppsCells(cfg, appDefs(), appsCores, appsMeasure)
}

// runAppsCells runs every (system, app) cell sequentially on its own
// engine. An event scheduled at the engine's current time before the
// driver call fires first once the driver starts the clock, which splits
// the driver's untimed setup from its timed run on the host clock.
func runAppsCells(cfg iterConfig, defs []appDef, cores int, measure sim.Duration) *iterResult {
	it := newIterResult()
	h := fnv.New64a()
	systems := []bench.System{bench.SysNOVA, bench.SysEasyIO}
	out := map[bench.System][]appOut{}
	ci := 0
	for _, sys := range systems {
		for _, a := range defs {
			name := fmt.Sprintf("apps/%s/%s", sys, a.name)
			a0 := cfg.tr.allocBytes()
			t0 := time.Now()
			inst, err := bench.NewInstance(sys, cores, bench.InstanceOptions{Seed: cfg.seed})
			if err != nil {
				panic(err)
			}
			t1 := time.Now()
			fs := newCountingFS(inst.FS, cfg.tr != nil)
			var t2 time.Time
			var a2 uint64
			inst.Eng.At(inst.Eng.Now(), func() { t2, a2 = time.Now(), cfg.tr.allocBytes() })
			var o appOut
			if a.spec != nil {
				res, err := apps.Run(inst.Eng, inst.RT, fs, apps.Config{
					Spec: *a.spec, Cores: cores, Uthreads: inst.Uthreads(), Measure: measure, Seed: cfg.seed,
				})
				if err != nil {
					panic(err)
				}
				o = appOut{ops: res.Ops, thr: res.Throughput(), lat: &res.Lat}
			} else {
				res, err := filebench.Run(inst.Eng, inst.RT, fs, filebench.Config{
					Personality: filebench.Fileserver, Cores: cores, Uthreads: inst.Uthreads(), Measure: measure, Seed: cfg.seed,
				})
				if err != nil {
					panic(err)
				}
				o = appOut{ops: res.Ops, thr: res.Throughput(), lat: &res.Lat}
			}
			t3 := time.Now()
			cc := collect(inst)
			inst.Close()
			t4 := time.Now()
			o.busy = cc.busyFrac
			it.lt.setupAlloc += a2 - a0

			cfg.tr.hostSpan("setup.instance", ci, t0, t1)
			cfg.tr.hostSpan("setup.prefill", ci, t1, t2)
			cfg.tr.hostSpan("sim.run", ci, t2, t3)
			cfg.tr.hostSpan("teardown", ci, t3, t4)
			cfg.tr.cell(name, fs.rec)
			ci++
			it.lt.instanceS += t1.Sub(t0).Seconds()
			it.lt.prefillS += t2.Sub(t1).Seconds()
			it.runS += t3.Sub(t2).Seconds()
			it.lt.teardownS += t4.Sub(t3).Seconds()
			it.lt.addCell(&cc)
			it.lt.fs.add(&fs.c)
			if cc.dma {
				it.lt.fsBytesDMA += fs.c.bytes
			}
			it.addFSRecorder(fs.rec)
			if sys == bench.SysEasyIO {
				it.blimit = cc.bLimit
			}
			if o.ops <= 0 {
				it.fail("%s: no operations completed", name)
			}
			it.ops += o.ops
			it.attempted += fs.c.total()
			fmt.Fprintf(h, "%s:%d,%d,%d,%d,%d,%d;", name, o.ops, o.lat.Count(),
				o.lat.P50(), o.lat.P99(), o.lat.Mean(), o.lat.Max())
			hashCounters(h, &cc)
			out[sys] = append(out[sys], o)
		}
	}
	it.digest = h.Sum64()
	it.failed += it.lt.fs.errors
	if it.attempted > 0 {
		it.e2e["served_frac"] = 1 - float64(it.lt.fs.errors)/float64(it.attempted)
	}

	ez, nv := out[bench.SysEasyIO], out[bench.SysNOVA]
	span := measure.Seconds()
	var wk, rk, bulk, busy float64
	var p50s, p99s, p999s, speedups []float64
	var refs []paperRef
	p999ok := true
	minN := int64(-1)
	for i, a := range defs {
		e := ez[i]
		if a.writeBytes > 0 {
			wk += e.thr / 1e3
			bulk += float64(e.ops) * float64(a.writeBytes) / span / 1e6
		} else {
			rk += e.thr / 1e3
		}
		busy += e.busy * float64(cores)
		n := int64(e.lat.Count())
		if !pctUsable(n, 99) {
			it.fail("apps %s: %d EasyIO samples leave fewer than %d beyond p99", a.name, n, minBeyond)
		}
		p999ok = p999ok && pctUsable(n, 99.9)
		if minN < 0 || n < minN {
			minN = n
		}
		p50s = append(p50s, e.lat.P50().Micros())
		p99s = append(p99s, e.lat.P99().Micros())
		p999s = append(p999s, e.lat.Percentile(99.9).Micros())
		s := e.thr / nv[i].thr
		speedups = append(speedups, s)
		refs = append(refs, paperRef{a.name, a.paper, s})
	}
	it.e2e["vt_write_kops"] = wk
	it.e2e["vt_read_kops"] = rk
	it.e2e["vt_bulk_mb_per_s"] = bulk
	it.e2e["vt_cores_at_peak"] = busy / float64(len(defs))
	it.e2e["vt_p50_us"] = geomean(p50s)
	it.e2e["vt_p99_us"] = geomean(p99s)
	if p999ok {
		it.layer["vt.p999_us"] = geomean(p999s)
	} else {
		it.skip("vt.p999_us", fmt.Sprintf("an app has fewer than %d EasyIO samples beyond p99.9 in %v of VT", minBeyond, measure))
	}
	it.layer["vt.p99_samples"] = float64(minN)
	it.layer["vt.speedup_vs_nova"] = geomean(speedups)
	it.layer["vt.paper_err"] = paperErr(refs)
	it.skip("vt.capacity_load", "closed-loop apps have no load ladder")
	it.skipService("closed-loop apps drive no service layer")
	return it
}
