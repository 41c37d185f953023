// Command easyio-bench regenerates every table and figure of the EasyIO
// paper's evaluation on the simulated testbed.
//
// Usage:
//
//	easyio-bench -exp all            # everything (minutes)
//	easyio-bench -exp fig9 -quick    # one figure, short windows
//	easyio-bench -exp fig2,fig3,table2
//	easyio-bench -exp all -parallel 8
//
// Experiments: fig1 fig2 fig3 fig4 fig8 fig9 fig10 fig11 fig12 table1
// table2. Independent sweep points fan out across -parallel workers; the
// output is byte-identical for any worker count (each sweep point is its
// own virtual machine, and results are printed in sweep order).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"github.com/easyio-sim/easyio/internal/bench"
	"github.com/easyio-sim/easyio/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments (fig1..fig12, table1, table2, ablations, all)")
	quick := flag.Bool("quick", false, "short measurement windows (smoke test)")
	seed := flag.Uint64("seed", 42, "simulation seed")
	points := flag.Int("crashpoints", 1000, "crash states per Table 2 workload")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent sweep-point jobs (output is identical for any value)")
	simworkers := flag.Int("simworkers", runtime.GOMAXPROCS(0), "goroutines per multi-domain simulation (output is identical for any value)")
	flag.Parse()

	if *parallel < 1 {
		*parallel = 1
	}
	bench.Workers = *parallel
	if *simworkers < 1 {
		*simworkers = 1
	}
	bench.SimWorkers = *simworkers

	measure := 20 * sim.Millisecond
	raw := 10 * sim.Millisecond
	appMeasure := 120 * sim.Millisecond
	if *quick {
		measure = 4 * sim.Millisecond
		raw = 3 * sim.Millisecond
		appMeasure = 30 * sim.Millisecond
		if *points > 100 {
			*points = 100
		}
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	ok := true
	run := func(name string, fn func()) {
		if all || want[name] {
			fmt.Printf("==== %s ====\n", name)
			fn()
		}
	}

	run("table1", func() { bench.Table1(os.Stdout) })
	run("fig1", func() { bench.Fig1(os.Stdout) })
	run("fig2", func() { bench.Fig2(os.Stdout, raw) })
	run("fig3", func() { bench.Fig3(os.Stdout, raw) })
	run("fig4", func() { bench.Fig4(os.Stdout, raw) })
	run("fig8", func() { bench.Fig8(os.Stdout) })
	run("fig9", func() { bench.Fig9(os.Stdout, measure, *seed) })
	run("fig10", func() { bench.Fig10(os.Stdout, appMeasure, *seed) })
	run("fig11", func() { bench.Fig11(os.Stdout, measure, *seed) })
	run("fig12", func() { bench.Fig12(os.Stdout, 6*sim.Millisecond, *seed) })
	run("ablations", func() {
		bench.AblationDSAMode(os.Stdout, 4*sim.Millisecond, *seed)
		bench.AblationPollCost(os.Stdout, measure, *seed)
		bench.AblationOffloadThreshold(os.Stdout)
	})
	run("table2", func() {
		if !bench.Table2(os.Stdout, *points) {
			ok = false
		}
	})

	if !ok {
		os.Exit(1)
	}
}
