package bench

import (
	"runtime"
	"testing"
	"time"

	"github.com/easyio-sim/easyio/internal/sim"
)

// TestFig9ScalingSpeedup asserts the tentpole's payoff: the cluster-run
// fig9 cell fleet (all four panels, one cluster) must be at least 2x
// faster at -simworkers 4 than at 1, with every worker count computing
// identical points. The assertion needs real parallelism, so it is
// skipped on hosts with fewer than 4 CPUs; _perfbench's
// sim.cluster_speedup row is the host-stamped scaling measurement there.
func TestFig9ScalingSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock scaling measurement; skipped in -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("host has %d CPUs; the 4-worker speedup floor needs at least 4", runtime.NumCPU())
	}
	old := SimWorkers
	defer func() { SimWorkers = old }()
	jobs, _ := fig9AllJobs(fig9PanelCfgs())
	var base []Fig9Point
	wall := map[int]time.Duration{}
	for _, w := range []int{1, 2, 4} {
		SimWorkers = w
		t0 := time.Now()
		points := runFig9Cells(jobs, 4*sim.Millisecond, 42)
		wall[w] = time.Since(t0)
		t.Logf("simworkers=%d wall=%.1fms", w, float64(wall[w].Microseconds())/1000)
		if base == nil {
			base = points
			continue
		}
		for i := range points {
			if points[i] != base[i] {
				t.Fatalf("fig9 cell %d diverged at simworkers=%d: %+v, want %+v", i, w, points[i], base[i])
			}
		}
	}
	if speedup := float64(wall[1]) / float64(wall[4]); speedup < 2 {
		t.Fatalf("fig9 speedup at simworkers=4 is %.2fx, want >= 2x", speedup)
	}
}
