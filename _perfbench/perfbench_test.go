package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"github.com/easyio-sim/easyio/internal/apps"
	"github.com/easyio-sim/easyio/internal/bench"
	"github.com/easyio-sim/easyio/internal/fxmark"
	"github.com/easyio-sim/easyio/internal/sim"
)

func TestPercentileSampleRule(t *testing.T) {
	cases := []struct {
		n    int64
		p    float64
		want bool
	}{
		{1000, 99, true},    // rank 990, 10 beyond
		{999, 99, false},    // rank 990, 9 beyond
		{10000, 99.9, true}, // rank 9990, 10 beyond
		{9999, 99.9, false}, // rank 9990, 9 beyond
		{20, 50, true},      // rank 10, 10 beyond
		{19, 50, false},     // rank 10, 9 beyond
		{0, 50, false},
	}
	for _, c := range cases {
		if got := pctUsable(c.n, c.p); got != c.want {
			t.Errorf("pctUsable(%d, %g) = %v, want %v (beyond %d)", c.n, c.p, got, c.want, beyond(c.n, c.p))
		}
	}
}

func TestCapacityLadderRule(t *testing.T) {
	ok := func(load float64) ladderStep { return ladderStep{load: load, webP99OK: true} }
	cases := []struct {
		name  string
		steps []ladderStep
		want  float64
	}{
		{"all clean", []ladderStep{ok(0.5), ok(1), ok(1.5), ok(2)}, 2},
		{"shed from 1.5", []ladderStep{ok(0.5), ok(1), {load: 1.5, webP99OK: true, refused: 3}, {load: 2, webP99OK: true, refused: 9}}, 1},
		{"unfinished disqualifies", []ladderStep{ok(0.5), {load: 1, webP99OK: true, unfinished: 1}}, 0.5},
		{"slo miss disqualifies", []ladderStep{ok(0.5), {load: 1}}, 0.5},
		{"highest qualifying step, not the first failure", []ladderStep{ok(0.5), {load: 1, refused: 1, webP99OK: true}, ok(1.5)}, 1.5},
		{"none qualifies", []ladderStep{{load: 0.5, refused: 1, webP99OK: true}}, 0},
	}
	for _, c := range cases {
		if got := capacityLoad(c.steps); got != c.want {
			t.Errorf("%s: capacityLoad = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestGeomeanAndPaperErr(t *testing.T) {
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %g, want 4", g)
	}
	if g := geomean([]float64{1, 0}); !math.IsNaN(g) {
		t.Errorf("geomean with a zero = %g, want NaN", g)
	}
	e := paperErr([]paperRef{{"a", 2, 1}, {"b", 1, 1.5}})
	if math.Abs(e-0.5) > 1e-12 { // (|0.5-1| + |1.5-1|) / 2
		t.Errorf("paperErr = %g, want 0.5", e)
	}
	if !math.IsNaN(paperErr(nil)) {
		t.Error("paperErr of no references must be NaN")
	}
}

func TestCoresAtPeakAndMedian(t *testing.T) {
	cores := []int{1, 2, 4, 6, 8}
	c, peak := coresAtPeak(cores, []float64{100, 190, 292, 300, 295}, 0.97)
	if c != 4 || peak != 300 {
		t.Errorf("coresAtPeak = %d, %g; want 4, 300", c, peak)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
}

func TestLayerForFunc(t *testing.T) {
	cases := map[string]string{
		modulePath + "/internal/sim.(*Engine).RunUntil":   "sim",
		modulePath + "/internal/pmem.(*Device).recompute": "pmem",
		modulePath + "/internal/fxmark.Start.func1":       "driver",
		modulePath + "/internal/stats.(*Hist).Add":        "other",
		modulePath + "/internal/bench.NewInstance":        "setup",
		"main.runFxmarkCells":                             "harness",
		"runtime.mallocgc":                                "",
	}
	for fn, want := range cases {
		if got := layerForFunc(fn); got != want {
			t.Errorf("layerForFunc(%q) = %q, want %q", fn, got, want)
		}
	}
}

// spin burns CPU in this package so the profile has harness samples.
func spin(d time.Duration) int {
	x := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

func TestAttributionSumsToProfileTotal(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	a, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if a.total <= 0 {
		t.Skip("no CPU samples collected")
	}
	var sum float64
	for _, l := range profLayers {
		sum += a.bySeconds[l]
	}
	if math.Abs(sum-a.total) > 1e-9 {
		t.Errorf("layer sum %g != total %g", sum, a.total)
	}
	if a.bySeconds["harness"] == 0 {
		t.Errorf("spin loop not attributed to the harness: %v", a.bySeconds)
	}
}

// The VT digest is a function of the seed alone: repeated runs, traced
// runs and any worker count agree, and another seed's inputs differ.
func TestDigestStabilityTinyConfigs(t *testing.T) {
	fxTiny := func(cfg iterConfig) *iterResult {
		var cells []*fxCell
		for _, c := range []struct {
			wl    fxmark.Workload
			sys   bench.System
			cores int
		}{{fxmark.DWAL, bench.SysEasyIO, 1}, {fxmark.DWAL, bench.SysEasyIO, 2}, {fxmark.DWAL, bench.SysNOVA, 1}, {fxmark.DRBL, bench.SysEasyIO, 1}} {
			cells = append(cells, &fxCell{wl: c.wl, sys: c.sys, cores: c.cores, name: string(c.wl) + "/" + string(c.sys)})
		}
		return runFxmarkCells(cfg, cells, sim.Millisecond)
	}
	serveTiny := func(cfg iterConfig) *iterResult {
		return runServeLadder(cfg, []float64{0.5, 2}, 5*sim.Millisecond)
	}
	appsTiny := func(cfg iterConfig) *iterResult {
		defs := []appDef{{"AES", &apps.AES, 1.0, int64(apps.AES.WriteSize)}, {"Fileserver", nil, 2.3, 1<<20 + 16<<10}}
		return runAppsCells(cfg, defs, 2, 10*sim.Millisecond)
	}
	for _, c := range []struct {
		name string
		run  func(iterConfig) *iterResult
	}{{"fxmark", fxTiny}, {"serve", serveTiny}, {"apps", appsTiny}} {
		base := c.run(iterConfig{seed: 42, workers: 1})
		again := c.run(iterConfig{seed: 42, workers: 1})
		traced := c.run(iterConfig{seed: 42, workers: 2, tr: newTracer()})
		if base.digest != again.digest || base.digest != traced.digest {
			t.Errorf("%s: digests differ: %#x %#x %#x", c.name, base.digest, again.digest, traced.digest)
		}
		if base.lt.fs.errors != 0 {
			t.Errorf("%s: fs errors %d", c.name, base.lt.fs.errors)
		}
	}
	a := serveTiny(iterConfig{seed: 1, workers: 1})
	b := serveTiny(iterConfig{seed: 2, workers: 1})
	if a.digest == b.digest {
		t.Error("serve: different seeds gave the same digest")
	}
}

// BENCHMARK.json at the repository root must list exactly this
// benchmark's workloads and metric tables, with matching units and
// directions.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q != %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []entry, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}
