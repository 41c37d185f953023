package bench

import (
	"strings"
	"testing"

	"github.com/easyio-sim/easyio/internal/fxmark"
	"github.com/easyio-sim/easyio/internal/sim"
)

// The drivers are exercised end-to-end with tiny windows; these tests
// assert the paper's headline *shapes*, not absolute values, so they are
// regression guards for the calibration.

func TestInstanceConstruction(t *testing.T) {
	for _, sys := range append(AllSystems(), SysNaive) {
		inst, err := NewInstance(sys, 2, InstanceOptions{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if inst.FS == nil || inst.RT == nil {
			t.Fatalf("%s: incomplete instance", sys)
		}
		if sys == SysEasyIO && inst.UtPerCore != 2 {
			t.Fatalf("EasyIO uthread factor = %d", inst.UtPerCore)
		}
		inst.Close()
	}
}

// TestFig1DecompositionMatches pins Fig1's cross-check: the simulated
// NOVA latency of every (op, size) cell must stay within 1 µs of its
// syscall + indexing + metadata + memcpy decomposition, which Fig1
// reports as a WARNING line.
func TestFig1DecompositionMatches(t *testing.T) {
	var sb strings.Builder
	Fig1(&sb)
	out := sb.String()
	for _, op := range []string{"write", "read"} {
		if !strings.Contains(out, "Figure 1 — NOVA "+op+" latency breakdown") {
			t.Fatalf("Fig1 output has no %s table:\n%s", op, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "WARNING:") {
			t.Errorf("%s", line)
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	// EasyIO must have the lowest 64K write latency of all systems, and
	// its CPU share must be well below 1.
	var lats []sim.Duration
	for _, sys := range AllSystems() {
		lat, _ := measureOpLatency(sys, "write", 64<<10)
		lats = append(lats, lat)
	}
	easy := lats[3]
	for i, sys := range AllSystems()[:3] {
		if easy >= lats[i] {
			t.Fatalf("EasyIO 64K write (%v) not below %s (%v)", easy, sys, lats[i])
		}
	}
	_, cpu := measureOpLatency(SysEasyIO, "write", 64<<10)
	share := float64(cpu) / float64(easy)
	if share > 0.55 {
		t.Fatalf("EasyIO-CPU share = %.2f, want < 0.55 (paper: 0.37)", share)
	}
}

func TestFig9PanelShape(t *testing.T) {
	// Write 64K: EasyIO peaks with drastically fewer cores than NOVA.
	p := RunFig9Panel(fxmark.DWAL, 64<<10, 3*sim.Millisecond, 7)
	if p.CoresAtPeak[SysEasyIO] >= p.CoresAtPeak[SysNOVA] {
		t.Fatalf("cores at peak: EasyIO %d vs NOVA %d", p.CoresAtPeak[SysEasyIO], p.CoresAtPeak[SysNOVA])
	}
	if p.CoresAtPeak[SysEasyIO] > 4 {
		t.Fatalf("EasyIO needed %d cores at 64K writes (paper: 2)", p.CoresAtPeak[SysEasyIO])
	}
	if p.Peak[SysEasyIO].Thr < p.Peak[SysNOVA].Thr {
		t.Fatal("EasyIO peak write throughput below NOVA")
	}
}

func TestFig12Shape(t *testing.T) {
	var sb strings.Builder
	Fig12(&sb, 4*sim.Millisecond, 7)
	out := sb.String()
	if !strings.Contains(out, "DMA-Throttling") {
		t.Fatalf("missing modes:\n%s", out)
	}
}

func TestTable2QuickAllPass(t *testing.T) {
	var sb strings.Builder
	if !Table2(&sb, 40) {
		t.Fatalf("crash consistency failures:\n%s", sb.String())
	}
}

func TestAblationsRun(t *testing.T) {
	var sb strings.Builder
	AblationDSAMode(&sb, 2*sim.Millisecond, 7)
	AblationOffloadThreshold(&sb)
	if !strings.Contains(sb.String(), "DSA per-app WQ") {
		t.Fatal("ablation output incomplete")
	}
}
