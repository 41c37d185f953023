package core

import (
	"bytes"
	"testing"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/dma"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
)

type harness struct {
	eng     *sim.Engine
	dev     *pmem.Device
	engines []*dma.Engine
	fs      *FS
	rt      *caladan.Runtime
}

func newHarness(t *testing.T, cores int, opts Options) *harness {
	t.Helper()
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 256<<20)
	opts.Nova.NumInodes = 512
	if err := Format(dev, opts); err != nil {
		t.Fatal(err)
	}
	engines := NewEngines(dev, 8)
	fs, err := Mount(dev, engines, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := caladan.New(eng, caladan.Options{Cores: cores, Seed: 1})
	return &harness{eng: eng, dev: dev, engines: engines, fs: fs, rt: rt}
}

func (h *harness) run() {
	h.eng.Run()
	h.eng.Shutdown()
}

func TestEasyIOWriteReadRoundtrip(t *testing.T) {
	h := newHarness(t, 1, Options{})
	data := make([]byte, 100_000)
	rng.New(3).Bytes(data)
	got := make([]byte, len(data))
	h.rt.Spawn(0, "w", func(task *caladan.Task) {
		f, err := h.fs.Create(task, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		if n, err := h.fs.WriteAt(task, f, 0, data); err != nil || n != len(data) {
			t.Errorf("write: %d %v", n, err)
		}
		if n, err := h.fs.ReadAt(task, f, 0, got); err != nil || n != len(data) {
			t.Errorf("read: %d %v", n, err)
		}
	})
	h.run()
	if !bytes.Equal(got, data) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestEasyIOUnalignedWrite(t *testing.T) {
	h := newHarness(t, 1, Options{})
	var got []byte
	h.rt.Spawn(0, "w", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/f")
		base := bytes.Repeat([]byte{'x'}, 3*nova.BlockSize)
		h.fs.WriteAt(task, f, 0, base)
		h.fs.WriteAt(task, f, 1000, bytes.Repeat([]byte{'y'}, 10_000))
		got = make([]byte, 3*nova.BlockSize)
		h.fs.ReadAt(task, f, 0, got)
	})
	h.run()
	for i := 0; i < 3*nova.BlockSize; i++ {
		want := byte('x')
		if i >= 1000 && i < 11000 {
			want = 'y'
		}
		if got[i] != want {
			t.Fatalf("byte %d = %c, want %c", i, got[i], want)
		}
	}
}

func TestAsyncWriteHarvestsCore(t *testing.T) {
	// One core, one big async write plus a compute uthread: the compute
	// work must interleave with the in-flight DMA window.
	h := newHarness(t, 1, Options{})
	var writeDone sim.Time
	iterBeforeWrite := 0
	iters := 0
	h.rt.Spawn(0, "writer", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/f")
		h.fs.WriteAt(task, f, 0, make([]byte, 1<<20)) // ~87us of DMA
		writeDone = task.Now()
		iterBeforeWrite = iters
	})
	h.rt.Spawn(0, "compute", func(task *caladan.Task) {
		for i := 0; i < 200; i++ {
			task.Compute(sim.Microsecond)
			iters++
			task.Yield()
		}
	})
	h.run()
	if writeDone == 0 {
		t.Fatal("write never completed")
	}
	if iterBeforeWrite < 20 {
		t.Fatalf("only %d compute iterations overlapped the write window (no harvesting)", iterBeforeWrite)
	}
}

func TestWriteAfterWriteGates(t *testing.T) {
	// Second write to the same file must not complete before the first
	// write's DMA lands (level-2 write-write conflict).
	h := newHarness(t, 2, Options{})
	var firstData, secondStartedMoving sim.Time
	f := make(chan struct{}, 1)
	_ = f
	var file *nova.File
	h.rt.Spawn(0, "w1", func(task *caladan.Task) {
		file, _ = h.fs.Create(task, "/f")
		h.fs.WriteAt(task, file, 0, make([]byte, 2<<20))
		firstData = task.Now()
	})
	h.rt.Spawn(1, "w2", func(task *caladan.Task) {
		task.Sleep(10 * sim.Microsecond) // let w1 commit + unlock first
		h.fs.WriteAt(task, file, 0, make([]byte, 8192))
		secondStartedMoving = task.Now()
	})
	h.run()
	if secondStartedMoving <= firstData {
		t.Fatalf("second write finished (%v) before first write's data landed (%v)", secondStartedMoving, firstData)
	}
}

func TestReadAfterWriteGates(t *testing.T) {
	h := newHarness(t, 2, Options{})
	var writeLanded, readDone sim.Time
	var file *nova.File
	h.rt.Spawn(0, "w", func(task *caladan.Task) {
		file, _ = h.fs.Create(task, "/f")
		h.fs.WriteAt(task, file, 0, make([]byte, 2<<20))
		writeLanded = task.Now()
	})
	h.rt.Spawn(1, "r", func(task *caladan.Task) {
		task.Sleep(10 * sim.Microsecond)
		buf := make([]byte, 4096)
		h.fs.ReadAt(task, file, 0, buf)
		readDone = task.Now()
	})
	h.run()
	if readDone <= writeLanded {
		t.Fatalf("read (%v) returned before the pending write landed (%v)", readDone, writeLanded)
	}
}

func TestWriteAfterReadDoesNotGate(t *testing.T) {
	// CoW: a later write need not wait for an in-flight read's data I/O.
	// The read holds the lock only briefly; the write then proceeds and
	// may finish while the read is still moving data.
	h := newHarness(t, 2, Options{})
	var readDone, writeDone sim.Time
	var file *nova.File
	h.rt.Spawn(0, "setup", func(task *caladan.Task) {
		file, _ = h.fs.Create(task, "/f")
		h.fs.WriteAt(task, file, 0, make([]byte, 4<<20))
	})
	h.eng.After(2*sim.Millisecond, func() {
		h.rt.Spawn(0, "r", func(task *caladan.Task) {
			buf := make([]byte, 4<<20) // long read (memcpy fallback likely)
			h.fs.ReadAt(task, file, 0, buf)
			readDone = task.Now()
		})
		h.rt.Spawn(1, "w", func(task *caladan.Task) {
			task.Sleep(5 * sim.Microsecond)
			h.fs.WriteAt(task, file, 0, make([]byte, 8192))
			writeDone = task.Now()
		})
	})
	h.run()
	if writeDone == 0 || readDone == 0 {
		t.Fatal("ops incomplete")
	}
	if writeDone >= readDone {
		t.Fatalf("write (%v) waited for the read (%v); reads must not block writes", writeDone, readDone)
	}
}

func TestSelectiveOffloadSmallWrites(t *testing.T) {
	h := newHarness(t, 1, Options{})
	h.rt.Spawn(0, "w", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/small")
		for i := 0; i < 10; i++ {
			h.fs.WriteAt(task, f, int64(i*4096), make([]byte, 4096))
		}
	})
	h.run()
	for _, e := range h.engines {
		for i := 0; i < e.NumChannels(); i++ {
			if e.Channel(i).CompletedSN() != 0 {
				t.Fatalf("4KB writes used DMA channel %d/%d", e.ID(), i)
			}
		}
	}
}

func TestLargeWritesUseLChannels(t *testing.T) {
	h := newHarness(t, 1, Options{})
	h.rt.Spawn(0, "w", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/big")
		for i := 0; i < 8; i++ {
			h.fs.WriteAt(task, f, int64(i)<<16, make([]byte, 64<<10))
		}
	})
	h.run()
	used := 0
	for _, ref := range h.fs.Manager().LChannels() {
		if ref.Chan.CompletedSN() > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("writes not spread over L channels: %d used", used)
	}
	if h.fs.Manager().BChannel().Chan.CompletedSN() != 0 {
		t.Fatal("L writes leaked onto the B channel")
	}
}

func TestClassBSplitsOnBChannel(t *testing.T) {
	h := newHarness(t, 1, Options{})
	h.rt.Spawn(0, "gc", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/bulk")
		h.fs.WriteAtClass(task, f, 0, make([]byte, 2<<20), ClassB)
	})
	h.run()
	b := h.fs.Manager().BChannel().Chan
	if b.CompletedSN() < 32 {
		t.Fatalf("2MB B write produced %d descriptors, want >= 32 (64KB split)", b.CompletedSN())
	}
	for _, ref := range h.fs.Manager().LChannels() {
		if ref.Chan.CompletedSN() != 0 {
			t.Fatal("B write leaked onto L channels")
		}
	}
}

func TestOrderlessRecoveryDiscardsUnfinishedWrite(t *testing.T) {
	// The crash window §4.2 exists for: metadata committed, data DMA not
	// landed. Recovery must discard the committed entry (SN not durable)
	// and expose the old contents.
	h := newHarness(t, 1, Options{})
	old := bytes.Repeat([]byte{'O'}, 256<<10)
	newData := bytes.Repeat([]byte{'N'}, 256<<10)
	var commitSeen bool
	h.rt.Spawn(0, "w", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/f")
		h.fs.WriteAt(task, f, 0, old)
		h.dev.EnableTracking()
		commitSeen = true
		h.fs.WriteAt(task, f, 0, newData) // 256KB DMA: ~21us in flight
	})
	// Stop the world mid-flight: after metadata commit (~10us in) but
	// before the 256KB DMA completes.
	h.eng.RunUntil(sim.Time(60 * sim.Microsecond))
	if !commitSeen {
		t.Fatal("test setup: write not reached")
	}
	// Crash with everything persisted-so-far applied.
	recs := h.dev.Records()
	all := make([]int, len(recs))
	for i := range all {
		all[i] = i
	}
	img := h.dev.CrashImage(all)
	h.eng.Shutdown()

	engines2 := NewEngines(img, 8)
	fs2, err := Mount(img, engines2, Options{Nova: nova.Options{NumInodes: 512}})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fs2.Open(nil, "/f")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(old))
	n, _ := fs2.FS.ReadAt(nil, f2, 0, got)
	if n != len(old) {
		t.Fatalf("post-crash size = %d", n)
	}
	if !bytes.Equal(got, old) {
		if bytes.Equal(got, newData) {
			t.Fatal("recovery kept a write whose DMA never landed (torn data possible)")
		}
		t.Fatal("post-crash contents are neither old nor new")
	}
}

func TestRecoveryKeepsFinishedWrite(t *testing.T) {
	h := newHarness(t, 1, Options{})
	data := bytes.Repeat([]byte{'D'}, 128<<10)
	h.rt.Spawn(0, "w", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/f")
		h.dev.EnableTracking()
		h.fs.WriteAt(task, f, 0, data)
	})
	h.run() // write fully completes
	recs := h.dev.Records()
	all := make([]int, len(recs))
	for i := range all {
		all[i] = i
	}
	img := h.dev.CrashImage(all)
	fs2, err := Mount(img, NewEngines(img, 8), Options{Nova: nova.Options{NumInodes: 512}})
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := fs2.Open(nil, "/f")
	got := make([]byte, len(data))
	fs2.FS.ReadAt(nil, f2, 0, got)
	if !bytes.Equal(got, data) {
		t.Fatal("completed write lost after crash")
	}
}

func TestNaiveModeFunctional(t *testing.T) {
	h := newHarness(t, 1, Options{Naive: true})
	data := make([]byte, 64<<10)
	rng.New(5).Bytes(data)
	got := make([]byte, len(data))
	h.rt.Spawn(0, "w", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/f")
		h.fs.WriteAt(task, f, 0, data)
		h.fs.ReadAt(task, f, 0, got)
	})
	h.run()
	if !bytes.Equal(got, data) {
		t.Fatal("naive roundtrip mismatch")
	}
}

func TestNaiveSlowerThanOrderless(t *testing.T) {
	// Fig 11 left: orderless overlap shortens write latency.
	measure := func(naive bool) sim.Duration {
		h := newHarness(t, 1, Options{Naive: naive, BusyPoll: true})
		var dur sim.Duration
		h.rt.Spawn(0, "w", func(task *caladan.Task) {
			f, _ := h.fs.Create(task, "/f")
			h.fs.WriteAt(task, f, 0, make([]byte, 4096)) // warm
			start := task.Now()
			for i := 0; i < 16; i++ {
				h.fs.WriteAt(task, f, 0, make([]byte, 64<<10))
			}
			dur = sim.Duration(task.Now()-start) / 16
		})
		h.run()
		return dur
	}
	orderless, naive := measure(false), measure(true)
	if orderless >= naive {
		t.Fatalf("orderless (%v) not faster than naive (%v)", orderless, naive)
	}
	gain := 1 - float64(orderless)/float64(naive)
	if gain < 0.08 || gain > 0.45 {
		t.Fatalf("orderless gain = %.2f, want ~0.18 (Fig 11)", gain)
	}
}

func TestEasyIOCPUShareAt64K(t *testing.T) {
	// Fig 8: at 64 KB the CPU performs only ~37% (write) and ~5% (read)
	// of the operation; the rest is harvestable.
	h := newHarness(t, 1, Options{BusyPoll: true})
	var wDur, rDur sim.Duration
	h.rt.Spawn(0, "w", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/f")
		start := task.Now()
		h.fs.WriteAt(task, f, 0, make([]byte, 64<<10))
		wDur = sim.Duration(task.Now() - start)
		start = task.Now()
		h.fs.ReadAt(task, f, 0, make([]byte, 64<<10))
		rDur = sim.Duration(task.Now() - start)
	})
	h.run()
	wShare := float64(h.fs.CPUTimeWrite) / float64(wDur)
	rShare := float64(h.fs.CPUTimeRead) / float64(rDur)
	if wShare < 0.2 || wShare > 0.55 {
		t.Fatalf("write CPU share = %.2f (dur %v, cpu %v), want ~0.37", wShare, wDur, h.fs.CPUTimeWrite)
	}
	if rShare < 0.01 || rShare > 0.25 {
		t.Fatalf("read CPU share = %.2f (dur %v, cpu %v), want ~0.05", rShare, rDur, h.fs.CPUTimeRead)
	}
}

func TestManagerAdaptiveThrottling(t *testing.T) {
	h := newHarness(t, 1, Options{Manager: ManagerOptions{Adaptive: true, BLimit: 4e9}})
	m := h.fs.Manager()
	lapp := m.RegisterLApp(20 * sim.Microsecond)
	m.Start()
	// Violate the SLO for a while: the limit must come down.
	for i := 0; i < 40; i++ {
		d := sim.Duration(i) * m.Options().Epoch
		h.eng.After(d, func() { lapp.Report(100 * sim.Microsecond) })
	}
	h.eng.RunUntil(sim.Time(41 * m.Options().Epoch))
	if m.BLimit() >= 4e9 {
		t.Fatalf("SLO violations did not throttle B-apps: limit = %.2g", m.BLimit())
	}
	down := m.BLimit()
	// Now meet the SLO comfortably: the limit recovers. (After is
	// relative to the already-advanced clock.)
	for i := 1; i < 40; i++ {
		d := sim.Duration(i) * m.Options().Epoch
		h.eng.After(d, func() { lapp.Report(2 * sim.Microsecond) })
	}
	h.eng.RunUntil(h.eng.Now() + sim.Time(41*m.Options().Epoch))
	if m.BLimit() <= down {
		t.Fatal("meeting the SLO did not raise the B-app limit")
	}
	m.Stop()
	h.eng.Run()
	h.eng.Shutdown()
}

func TestManagerBudgetSuspendsBChannel(t *testing.T) {
	h := newHarness(t, 1, Options{Manager: ManagerOptions{BLimit: 1e9}})
	m := h.fs.Manager()
	m.Start()
	// Saturate the B channel with bulk traffic far above 1 GB/s.
	h.rt.Spawn(0, "gc", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/bulk")
		for i := 0; i < 8; i++ {
			h.fs.WriteAtClass(task, f, 0, make([]byte, 2<<20), ClassB)
		}
	})
	h.eng.RunUntil(sim.Time(20 * sim.Millisecond))
	if m.SuspendCount() == 0 {
		t.Fatal("budget enforcement never suspended the B channel")
	}
	// Effective B throughput must be near the 1 GB/s budget.
	moved := m.BChannel().Chan.BytesCompleted()
	secs := float64(h.eng.Now()) / 1e9
	rate := float64(moved) / secs
	if rate > 1.6e9 {
		t.Fatalf("B-app rate %.2g B/s exceeds budget 1e9 substantially", rate)
	}
	m.Stop()
	h.eng.Run()
	h.eng.Shutdown()
}

func TestNegativeReadOffsetIsInvalid(t *testing.T) {
	h := newHarness(t, 1, Options{})
	h.rt.Spawn(0, "r", func(task *caladan.Task) {
		f, err := h.fs.Create(task, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := h.fs.WriteAt(task, f, 0, []byte("data")); err != nil {
			t.Error(err)
		}
		if _, err := h.fs.ReadAt(task, f, -1, make([]byte, 4)); err != nova.ErrInvalid {
			t.Errorf("ReadAt(-1) = %v, want nova.ErrInvalid", err)
		}
	})
	h.run()
}
