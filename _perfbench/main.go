// Command perfbench is the repository's performance benchmark. One
// invocation runs one workload for a given seed, checks the simulator's
// outputs, and prints every metric with its unit and clock (host or
// virtual time), ending with one JSON result line. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/easyio-sim/easyio/internal/stats"
)

// iterConfig parameterizes one iteration of a workload.
type iterConfig struct {
	seed    uint64
	workers int     // sim.Cluster workers (fxmark-16k only)
	tr      *tracer // non-nil: traced iteration
}

// iterResult is one iteration's outcome.
type iterResult struct {
	runS      float64 // host: timed phase wall
	ops       int64   // simulated ops the drivers counted
	attempted int64
	failed    int64
	digest    uint64
	e2e       map[string]float64 // end-to-end VT metrics and served_frac
	layer     map[string]float64 // per-layer vt.* and service.* metrics
	skips     map[string]string  // metric -> reason it is not measured
	problems  []string           // failed correctness checks
	lt        layerTotals
	blimit    float64
	// traced: FS latencies at the fsapi boundary, merged over cells
	readLat, writeLat stats.Hist
	haveRec           bool
}

func newIterResult() *iterResult {
	return &iterResult{
		e2e:   map[string]float64{},
		layer: map[string]float64{},
		skips: map[string]string{},
	}
}

func (it *iterResult) setupS() float64 { return it.lt.instanceS + it.lt.prefillS }

func (it *iterResult) fail(format string, args ...any) {
	it.problems = append(it.problems, fmt.Sprintf(format, args...))
	it.failed++
}

func (it *iterResult) skip(metric, reason string) { it.skips[metric] = reason }

// skipService marks the per-tenant service metrics as not measured.
func (it *iterResult) skipService(reason string) {
	for _, t := range serveTenantNames {
		for _, f := range []string{"arrived", "shed", "unfinished", "slo_met_frac"} {
			it.skip("service."+t+"."+f, reason)
		}
	}
}

// pct stores a percentile if the sample rule allows it; an end-to-end
// percentile that fails the rule is a correctness failure, a per-layer
// one is reported as skipped.
func (it *iterResult) pct(metric string, n int64, p, v float64) {
	if pctUsable(n, p) {
		if strings.HasPrefix(metric, "vt.") {
			it.layer[metric] = v
		} else {
			it.e2e[metric] = v
		}
		return
	}
	reason := fmt.Sprintf("%d samples leave fewer than %d beyond p%g", n, minBeyond, p)
	if strings.HasPrefix(metric, "vt.") {
		it.skip(metric, reason)
		return
	}
	it.fail("%s: %s", metric, reason)
}

func (it *iterResult) addFSRecorder(r *fsRecorder) {
	if r == nil {
		return
	}
	it.haveRec = true
	it.readLat.Merge(&r.readLat)
	it.writeLat.Merge(&r.writeLat)
}

// workload is one named benchmark scenario.
type workload struct {
	name, loop, why string
	run             func(iterConfig) *iterResult
	// parallel workloads run on a sim.Cluster and report its scaling.
	parallel bool
}

var workloads = []workload{
	{"fxmark-16k", "closed", "Fig 9 16 KB DWAL+DRBL, 4 systems x core sweep: 92 cluster cells of short ops", runFxmark, true},
	{"serve-ladder", "open", "3-tenant EasyIO serving cell under EWMA admission over a bulk-load ladder", runServe, false},
	{"apps-16c", "closed", "6 Fig 10 apps on NOVA and EasyIO at 16 cores: few large transfers, ms compute", runApps, false},
}

// metricSpec names a reported metric: its unit, its clock (host or vt)
// and which direction is better.
type metricSpec struct {
	name, unit, clock, better string
}

// endToEnd are the metrics a timed run reports (BENCHMARK.json).
var endToEnd = []metricSpec{
	{"setup_s", "s", "host", "lower"},
	{"host_us_per_op", "us", "host", "lower"},
	{"peak_rss_mb", "MB", "host", "lower"},
	{"served_frac", "frac", "vt", "higher"},
	{"vt_write_kops", "vt_kops/s", "vt", "higher"},
	{"vt_read_kops", "vt_kops/s", "vt", "higher"},
	{"vt_cores_at_peak", "vt_cores", "vt", "lower"},
	{"vt_p50_us", "vt_us", "vt", "lower"},
	{"vt_p99_us", "vt_us", "vt", "lower"},
	{"vt_bulk_mb_per_s", "vt_MB/s", "vt", "higher"},
}

// perLayer are the metrics a traced run reports.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		{"setup.instance_s", "s", "host", "lower"},
		{"setup.prefill_s", "s", "host", "lower"},
		{"setup.instances", "count", "host", "lower"},
		{"setup.alloc_mb", "MB", "host", "lower"},
		{"sim.run_s", "s", "host", "lower"},
		{"sim.teardown_s", "s", "host", "lower"},
		{"sim.events", "count", "vt", "lower"},
		{"sim.ns_per_event", "ns", "host", "lower"},
		{"sim.probe.chain_ns_per_event", "ns", "host", "lower"},
		{"sim.probe.wheel4k_ns_per_event", "ns", "host", "lower"},
		{"sim.probe.switch_ns", "ns", "host", "lower"},
		{"sim.cluster_speedup", "x", "host", "higher"},
		{"caladan.switches", "count", "vt", "lower"},
		{"caladan.switches_per_op", "count", "vt", "lower"},
		{"caladan.busy_frac", "frac", "vt", "lower"},
		{"core.suspends", "count", "vt", "lower"},
		{"core.blimit_final", "vt_MB/s", "vt", "higher"},
	}
	for _, op := range opNames {
		m = append(m, metricSpec{"fs." + op + ".count", "count", "vt", "higher"})
	}
	m = append(m,
		metricSpec{"fs.read.vt_p50_us", "vt_us", "vt", "lower"},
		metricSpec{"fs.read.vt_p99_us", "vt_us", "vt", "lower"},
		metricSpec{"fs.write.vt_p50_us", "vt_us", "vt", "lower"},
		metricSpec{"fs.write.vt_p99_us", "vt_us", "vt", "lower"},
		metricSpec{"fs.errors", "count", "vt", "lower"},
		metricSpec{"dma.descs", "count", "vt", "lower"},
		metricSpec{"dma.bytes", "MB", "vt", "higher"},
		metricSpec{"dma.bytes_per_desc", "B", "vt", "higher"},
		metricSpec{"dma.b_bytes", "MB", "vt", "higher"},
		metricSpec{"dma.offload_frac", "frac", "vt", "higher"},
	)
	for _, t := range serveTenantNames {
		m = append(m,
			metricSpec{"service." + t + ".arrived", "count", "vt", "higher"},
			metricSpec{"service." + t + ".shed", "count", "vt", "lower"},
			metricSpec{"service." + t + ".unfinished", "count", "vt", "lower"},
			metricSpec{"service." + t + ".slo_met_frac", "frac", "vt", "higher"},
		)
	}
	m = append(m,
		metricSpec{"vt.p999_us", "vt_us", "vt", "lower"},
		metricSpec{"vt.p99_samples", "count", "vt", "higher"},
		metricSpec{"vt.capacity_load", "x", "vt", "higher"},
		metricSpec{"vt.speedup_vs_nova", "x", "vt", "higher"},
		metricSpec{"vt.paper_err", "frac", "vt", "lower"},
		metricSpec{"go.mallocs_per_op", "count", "host", "lower"},
		metricSpec{"go.alloc_bytes_per_op", "B", "host", "lower"},
		metricSpec{"go.gc_cycles", "count", "host", "lower"},
		metricSpec{"go.gc_pause_ms", "ms", "host", "lower"},
	)
	for _, l := range profLayers {
		m = append(m, metricSpec{l + ".cpu_s", "s", "host", "lower"}, metricSpec{l + ".cpu_share", "frac", "host", "lower"})
	}
	m = append(m,
		metricSpec{"profile.total_s", "s", "host", "lower"},
		metricSpec{"trace.overhead_frac", "frac", "host", "lower"},
		metricSpec{"trace.spans", "count", "host", "higher"},
		metricSpec{"trace.spans_dropped", "count", "host", "lower"},
	)
	return m
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	wlName := flag.String("workload", "", "workload: fxmark-16k, serve-ladder or apps-16c")
	seed := flag.Uint64("seed", 42, "input seed")
	seconds := flag.Float64("seconds", 10, "host seconds to measure (timed runs)")
	trace := flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the trace file")
	simworkers := flag.Int("simworkers", 0, "sim.Cluster workers (default min(NumCPU, GOMAXPROCS))")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *wlName {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wlName)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	w := *simworkers
	if w == 0 {
		w = min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	if w < 1 || w > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "perfbench: simworkers %d outside [1, NumCPU=%d]\n", w, runtime.NumCPU())
		os.Exit(2)
	}
	if !wl.parallel {
		// Single-engine cells run sequentially on one goroutine. With one
		// P the runtime's GC work is charged to the measured wall time
		// instead of racing for a second CPU, which keeps runs steady.
		w = 1
		runtime.GOMAXPROCS(1)
	}
	fmt.Printf("# perfbench workload=%s loop=%s seed=%d trace=%d (%s)\n", wl.name, wl.loop, *seed, *trace, wl.why)
	fmt.Printf("# host numcpu=%d gomaxprocs=%d go=%s goarch=%s seed=%d simworkers=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOARCH, *seed, w)

	var res *result
	if *trace == 0 {
		res = timedRun(wl, iterConfig{seed: *seed, workers: w}, *seconds)
	} else {
		res = tracedRun(wl, iterConfig{seed: *seed, workers: w}, *out)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// check folds an iteration's correctness into the run-level verdict.
func check(res *result, it *iterResult, digest0 uint64, what string) {
	for _, p := range it.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
		res.Correct = false
	}
	if it.digest != digest0 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: VT digest %#016x (%s) != %#016x\n", it.digest, what, digest0)
		res.Correct = false
		res.Failed++
	}
	res.Attempted += it.attempted
	res.Failed += it.failed
}

// timedRun repeats the workload (tracing off, count-only decorators) for
// at least `seconds` of host time and at least three iterations. The
// first iteration warms the heap and caches and is left out of the host
// statistics (its VT digest is still checked). Before and after every
// iteration the heap is collected and the calibration kernel runs; an
// iteration's host times are scaled by calRefS over the mean of its two
// bracketing kernel times (see calib.go) and reported as medians over
// iterations.
func timedRun(wl *workload, cfg iterConfig, seconds float64) *result {
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	start := time.Now()
	var its []*iterResult
	calPoint := func() float64 {
		// Every iteration starts from a collected heap, so none inherits
		// its predecessor's garbage or GC phase.
		runtime.GC()
		return calibrate(cfg.workers)
	}
	cal := []float64{calPoint()}
	for len(its) < 3 || time.Since(start).Seconds() < seconds {
		it := wl.run(cfg)
		cal = append(cal, calPoint())
		digest0 := it.digest
		if len(its) > 0 {
			digest0 = its[0].digest
		}
		check(res, it, digest0, fmt.Sprintf("iteration %d", len(its)+1))
		its = append(its, it)
	}
	var setup, perOp, rawSetup, rawPerOp []float64
	for i, it := range its[1:] {
		scale := calRefS / ((cal[i+1] + cal[i+2]) / 2)
		rawSetup = append(rawSetup, it.setupS())
		rawPerOp = append(rawPerOp, it.runS/float64(it.ops)*1e6)
		setup = append(setup, rawSetup[i]*scale)
		perOp = append(perOp, rawPerOp[i]*scale)
	}
	first := its[0]
	fmt.Printf("# iterations=%d (first is warm-up) digest=%#016x\n", len(its), first.digest)
	fmt.Printf("# calibration_s=%s (reference %.3f)\n", fmtList(cal), calRefS)
	fmt.Printf("# raw medians: setup_s=%.4f host_us_per_op=%.4f\n", median(rawSetup), median(rawPerOp))
	fmt.Printf("# per-iteration (scaled) setup_s=%s host_us_per_op=%s\n", fmtList(setup), fmtList(perOp))
	vals := map[string]float64{
		"setup_s":        median(setup),
		"host_us_per_op": median(perOp),
		"peak_rss_mb":    peakRSSMB(),
	}
	for k, v := range first.e2e {
		vals[k] = v
	}
	emit(res, endToEnd, vals, first.skips)
	return res
}

// tracedRun measures the per-layer metrics: after a warm-up iteration,
// an untraced iteration, a traced iteration under the CPU profiler
// (decorators recording VT latencies and spans), and for cluster
// workloads a 1-worker iteration. All must produce the same VT digest.
func tracedRun(wl *workload, cfg iterConfig, outDir string) *result {
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	warm := wl.run(cfg)
	check(res, warm, warm.digest, "warm-up")
	runtime.GC()
	t0 := time.Now()
	plain := wl.run(cfg)
	plainWall := time.Since(t0).Seconds()
	check(res, plain, warm.digest, "untraced")

	tcfg := cfg
	tcfg.tr = newTracer()
	var ms0, ms1 runtime.MemStats
	var prof bytes.Buffer
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	t0 = time.Now()
	traced := wl.run(tcfg)
	wall := time.Since(t0).Seconds()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	check(res, traced, plain.digest, "traced vs untraced")

	vals := map[string]float64{}
	skips := map[string]string{}
	for k, v := range traced.skips {
		skips[k] = v
	}
	for k, v := range traced.layer {
		vals[k] = v
	}
	lt := &traced.lt
	ops := float64(traced.ops)
	vals["setup.instance_s"] = lt.instanceS
	vals["setup.prefill_s"] = lt.prefillS
	vals["setup.instances"] = float64(lt.cells)
	vals["sim.run_s"] = traced.runS
	vals["sim.teardown_s"] = lt.teardownS
	vals["sim.events"] = float64(lt.events)
	vals["sim.ns_per_event"] = traced.runS * 1e9 / float64(lt.events)
	for k, v := range kernelProbes(cfg.seed) {
		vals[k] = v
	}
	vals["caladan.switches"] = float64(lt.switches)
	vals["caladan.switches_per_op"] = float64(lt.switches) / ops
	vals["caladan.busy_frac"] = lt.busySum / float64(lt.cells)
	vals["core.suspends"] = float64(lt.suspends)
	vals["core.blimit_final"] = traced.blimit / 1e6
	for i, op := range opNames {
		vals["fs."+op+".count"] = float64(lt.fs.calls[i])
	}
	vals["fs.errors"] = float64(lt.fs.errors)
	latPct(vals, skips, "fs.read", &traced.readLat, traced.haveRec)
	latPct(vals, skips, "fs.write", &traced.writeLat, traced.haveRec)
	vals["dma.descs"] = float64(lt.dmaDescs)
	vals["dma.bytes"] = float64(lt.dmaBytes) / 1e6
	vals["dma.b_bytes"] = float64(lt.bBytes) / 1e6
	if lt.dmaDescs > 0 {
		vals["dma.bytes_per_desc"] = float64(lt.dmaBytes) / float64(lt.dmaDescs)
	}
	if lt.fsBytesDMA > 0 {
		vals["dma.offload_frac"] = float64(lt.dmaBytes) / float64(lt.fsBytesDMA)
	}
	vals["setup.alloc_mb"] = float64(lt.setupAlloc) / 1e6
	vals["go.mallocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / ops
	vals["go.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops
	vals["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	vals["go.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	attr, err := attribute(prof.Bytes())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: profile:", err)
		res.Correct = false
	} else {
		var sum float64
		for _, l := range profLayers {
			s := attr.bySeconds[l]
			sum += s
			vals[l+".cpu_s"] = s
			if attr.total > 0 {
				vals[l+".cpu_share"] = s / attr.total
			}
		}
		vals["profile.total_s"] = attr.total
		if math.Abs(sum-attr.total) > 1e-9*math.Max(1, attr.total) {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: layer cpu_s sum %g != profiled total %g\n", sum, attr.total)
			res.Correct = false
		}
	}

	vals["trace.overhead_frac"] = (wall - plainWall) / plainWall
	kept, dropped := tcfg.tr.spanCounts()
	vals["trace.spans"] = float64(kept)
	vals["trace.spans_dropped"] = float64(dropped)

	if wl.parallel {
		if runtime.NumCPU() < 2 || cfg.workers < 2 {
			skips["sim.cluster_speedup"] = fmt.Sprintf("needs >= 2 CPUs and simworkers (NumCPU=%d, simworkers=%d)", runtime.NumCPU(), cfg.workers)
		}
		one := cfg
		one.workers = 1
		serial := wl.run(one)
		check(res, serial, plain.digest, "1 worker vs NumCPU workers")
		if _, skipped := skips["sim.cluster_speedup"]; !skipped {
			vals["sim.cluster_speedup"] = serial.runS / plain.runS
		}
	} else {
		skips["sim.cluster_speedup"] = "cells run sequentially on one engine at a time"
	}

	base := filepath.Join(outDir, fmt.Sprintf("perfbench-%s-%d", wl.name, cfg.seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	} else if err := tcfg.tr.write(base+".trace.json", wl.name); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace:", err)
	} else if err := os.WriteFile(base+".cpu.pb.gz", prof.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: profile:", err)
	} else {
		fmt.Printf("# trace written to %s.trace.json, CPU profile to %s.cpu.pb.gz\n", base, base)
	}
	emit(res, perLayer, vals, skips)
	return res
}

// latPct reports a traced FS latency histogram's p50/p99 under the
// sample rule.
func latPct(vals map[string]float64, skips map[string]string, prefix string, h *stats.Hist, traced bool) {
	for _, p := range []float64{50, 99} {
		name := fmt.Sprintf("%s.vt_p%g_us", prefix, p)
		switch {
		case !traced:
			skips[name] = "workload drives no fsapi decorator"
		case !pctUsable(h.Count(), p):
			skips[name] = fmt.Sprintf("%d samples leave fewer than %d beyond p%g", h.Count(), minBeyond, p)
		default:
			vals[name] = h.Percentile(p).Micros()
		}
	}
}

// emit prints every metric of specs (value or skip reason) and fills the
// result map; skipped metrics are reported as 0 in the JSON line.
func emit(res *result, specs []metricSpec, vals map[string]float64, skips map[string]string) {
	for _, m := range specs {
		v, ok := vals[m.name]
		reason, skipped := skips[m.name]
		switch {
		case skipped:
			fmt.Printf("metric %-34s skipped (%s) [%s]\n", m.name, reason, m.clock)
			v = 0
		case !ok || math.IsNaN(v) || math.IsInf(v, 0):
			fmt.Printf("metric %-34s missing [%s]\n", m.name, m.clock)
			fmt.Fprintf(os.Stderr, "perfbench: check failed: metric %s was not measured\n", m.name)
			res.Correct = false
			v = 0
		default:
			fmt.Printf("metric %-34s %s %s [%s]\n", m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit, m.clock)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	var extra []string
	for k := range vals {
		found := false
		for _, m := range specs {
			found = found || m.name == k
		}
		if !found {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: metric %s is measured but not listed\n", k)
		res.Correct = false
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, ",")
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return math.NaN()
}
