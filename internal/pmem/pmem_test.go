package pmem

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
)

func newDev() (*sim.Engine, *Device) {
	eng := sim.NewEngine()
	return eng, New(eng, perfmodel.MicroNode(), 1<<30)
}

func TestReadWriteRoundtrip(t *testing.T) {
	_, d := newDev()
	data := []byte("hello slow memory")
	d.WriteAt(12345, data)
	got := make([]byte, len(data))
	d.ReadAt(got, 12345)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestReadUnwrittenIsZero(t *testing.T) {
	_, d := newDev()
	b := []byte{1, 2, 3, 4}
	d.ReadAt(b, 999)
	for _, v := range b {
		if v != 0 {
			t.Fatalf("unwritten read = %v", b)
		}
	}
}

func TestCrossPageWrite(t *testing.T) {
	_, d := newDev()
	data := make([]byte, 3*pageSize+17)
	rng.New(1).Bytes(data)
	off := int64(pageSize - 5)
	d.WriteAt(off, data)
	got := make([]byte, len(data))
	d.ReadAt(got, off)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page roundtrip mismatch")
	}
	// Byte just before and after remain zero.
	b := make([]byte, 1)
	d.ReadAt(b, off-1)
	if b[0] != 0 {
		t.Fatal("byte before write dirtied")
	}
}

func TestRoundtripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		_, d := newDev()
		type w struct {
			off  int64
			data []byte
		}
		var writes []w
		for i := 0; i < 20; i++ {
			n := 1 + g.Intn(3*pageSize)
			off := g.Int63n(d.Size() - int64(n))
			data := make([]byte, n)
			g.Bytes(data)
			d.WriteAt(off, data)
			writes = append(writes, w{off, data})
		}
		// Last write at each offset wins: verify the final write fully.
		last := writes[len(writes)-1]
		got := make([]byte, len(last.data))
		d.ReadAt(got, last.off)
		return bytes.Equal(got, last.data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWrite8Read8(t *testing.T) {
	_, d := newDev()
	d.Write8(4096-4, 0x1122334455667788) // cross page boundary
	if got := d.Read8(4096 - 4); got != 0x1122334455667788 {
		t.Fatalf("got %#x", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	_, d := newDev()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	d.WriteAt(d.Size()-2, []byte{1, 2, 3})
}

func TestSingleCPUWriteFlowRate(t *testing.T) {
	eng, d := newDev()
	m := d.Model()
	const n = 2_000_000
	var doneAt sim.Time = -1
	d.StartFlow(FlowSpec{Write: true, Kind: FlowCPU, Bytes: n, OnDone: func() { doneAt = eng.Now() }})
	eng.Run()
	want := float64(n) / m.CPUWriteRate * 1e9
	if doneAt < 0 {
		t.Fatal("flow never completed")
	}
	if math.Abs(float64(doneAt)-want) > want*0.01 {
		t.Fatalf("completed at %v, want ~%.0fns", doneAt, want)
	}
}

func TestConcurrentCPUWritersDegrade(t *testing.T) {
	eng, d := newDev()
	m := d.Model()
	const n = 1_000_000
	done := 0
	var last sim.Time
	for i := 0; i < 4; i++ {
		d.StartFlow(FlowSpec{Write: true, Kind: FlowCPU, Bytes: n, OnDone: func() { done++; last = eng.Now() }})
	}
	eng.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	perCore := m.CPURate(true, 4)
	want := float64(n) / perCore * 1e9
	if math.Abs(float64(last)-want) > want*0.02 {
		t.Fatalf("4-writer completion at %v, want ~%.0f (rate %.2f GB/s)", last, want, perCore/1e9)
	}
	if perCore >= m.CPUWriteRate {
		t.Fatal("no degradation under concurrency")
	}
}

func TestDMAWriteSaturatesNodeCap(t *testing.T) {
	eng, d := newDev()
	m := d.Model()
	const n = 10_000_000
	var doneAt sim.Time
	d.StartFlow(FlowSpec{Write: true, Kind: FlowDMA, Bytes: n, OnDone: func() { doneAt = eng.Now() }})
	eng.Run()
	// One channel's intrinsic 9 GB/s exceeds both the engine cap and the
	// DIMM cap (6.6), so the flow runs at 6.6 GB/s.
	want := float64(n) / m.WriteCap * 1e9
	if math.Abs(float64(doneAt)-want) > want*0.01 {
		t.Fatalf("done at %v, want ~%.0f", doneAt, want)
	}
}

func TestDMAReadEngineCap(t *testing.T) {
	eng, d := newDev()
	m := d.Model()
	const n = 5_000_000
	done := 0
	var last sim.Time
	for i := 0; i < 4; i++ {
		d.StartFlow(FlowSpec{Write: false, Kind: FlowDMA, Bytes: n, OnDone: func() { done++; last = eng.Now() }})
	}
	eng.Run()
	// 4 channels * 2.9 = 11.6 intrinsic but engine read cap is 5.6 GB/s.
	want := float64(4*n) / m.DMAReadCap * 1e9
	if math.Abs(float64(last)-want) > want*0.02 {
		t.Fatalf("done at %v, want ~%.0f", last, want)
	}
	_ = done
}

func TestWeightedSharing(t *testing.T) {
	eng, d := newDev()
	const n = 4_000_000
	var bigDone, smallDone sim.Time
	// Two DMA read flows on one engine: weight 4 vs 1 under the 5.6 GB/s
	// engine cap. The heavy flow should finish much earlier per byte.
	d.StartFlow(FlowSpec{Kind: FlowDMA, Bytes: n, Weight: 4, OnDone: func() { bigDone = eng.Now() }})
	d.StartFlow(FlowSpec{Kind: FlowDMA, Bytes: n, Weight: 1, OnDone: func() { smallDone = eng.Now() }})
	eng.Run()
	if bigDone >= smallDone {
		t.Fatalf("weighted flow not favored: big %v small %v", bigDone, smallDone)
	}
}

func TestFlowProgressAndCancel(t *testing.T) {
	eng, d := newDev()
	const n = 2_000_000
	f := d.StartFlow(FlowSpec{Write: true, Kind: FlowCPU, Bytes: n, OnDone: func() { t.Error("OnDone after cancel") }})
	// Half the expected duration: progress ~0.5.
	half := sim.Duration(float64(n) / d.Model().CPUWriteRate * 1e9 / 2)
	eng.After(half, func() {
		p := f.Progress()
		if p < 0.45 || p > 0.55 {
			t.Errorf("progress = %v, want ~0.5", p)
		}
		if !f.Cancel() {
			t.Error("cancel failed")
		}
		if f.Cancel() {
			t.Error("double cancel succeeded")
		}
	})
	eng.Run()
	if !f.Done() {
		t.Fatal("flow not done after cancel")
	}
}

func TestZeroByteFlowCompletes(t *testing.T) {
	eng, d := newDev()
	done := false
	d.StartFlow(FlowSpec{Bytes: 0, OnDone: func() { done = true }})
	eng.Run()
	if !done {
		t.Fatal("zero-byte flow never completed")
	}
}

func TestMaxminRespectsLimitsAndCap(t *testing.T) {
	limit := []float64{1, 10, 10}
	weight := []float64{1, 1, 2}
	alloc := make([]float64, 3)
	maxmin(limit, weight, alloc, make([]bool, 3), 7)
	// Item 0 satisfied at 1; remaining 6 split 1:2 -> 2 and 4.
	want := []float64{1, 2, 4}
	for i := range want {
		if math.Abs(alloc[i]-want[i]) > 1e-9 {
			t.Fatalf("alloc = %v, want %v", alloc, want)
		}
	}
}

func TestMaxminUnderloaded(t *testing.T) {
	limit := []float64{1, 2}
	alloc := make([]float64, 2)
	maxmin(limit, []float64{1, 1}, alloc, make([]bool, 2), 100)
	if alloc[0] != 1 || alloc[1] != 2 {
		t.Fatalf("alloc = %v", alloc)
	}
}

func TestTrackingAndCrashImage(t *testing.T) {
	_, d := newDev()
	d.WriteAt(0, []byte("base"))
	d.EnableTracking()
	d.WriteAt(100, []byte("aa")) // epoch 0, record 0
	d.Fence()
	d.WriteAt(200, []byte("bb")) // epoch 1, record 1
	d.WriteAt(300, []byte("cc")) // epoch 1, record 2
	d.Fence()

	if d.Epoch() != 2 || len(d.Records()) != 3 {
		t.Fatalf("epoch=%d records=%d", d.Epoch(), len(d.Records()))
	}

	// Crash with only records 0 and 2 applied (legal: all of epoch 0 +
	// subset of epoch 1).
	img := d.CrashImage([]int{0, 2})
	b := make([]byte, 4)
	img.ReadAt(b, 0)
	if string(b) != "base" {
		t.Fatalf("base lost: %q", b)
	}
	b2 := make([]byte, 2)
	img.ReadAt(b2, 100)
	if string(b2) != "aa" {
		t.Fatal("record 0 missing")
	}
	img.ReadAt(b2, 200)
	if b2[0] != 0 || b2[1] != 0 {
		t.Fatal("unapplied record present")
	}
	img.ReadAt(b2, 300)
	if string(b2) != "cc" {
		t.Fatal("record 2 missing")
	}
	// Original device unaffected.
	d.ReadAt(b2, 200)
	if string(b2) != "bb" {
		t.Fatal("live device lost data")
	}
}

func TestEpochBounds(t *testing.T) {
	_, d := newDev()
	d.EnableTracking()
	d.WriteAt(0, []byte{1}) // e0 r0
	d.WriteAt(1, []byte{1}) // e0 r1
	d.Fence()
	d.Fence()               // empty epoch 1
	d.WriteAt(2, []byte{1}) // e2 r2
	d.Fence()
	bounds := d.EpochBounds()
	want := []int{0, 2, 2, 3, 3}
	if len(bounds) != len(want) {
		t.Fatalf("bounds = %v, want %v", bounds, want)
	}
	for i := range want {
		if bounds[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", bounds, want)
		}
	}
}

func TestDisableTracking(t *testing.T) {
	_, d := newDev()
	d.EnableTracking()
	d.WriteAt(0, []byte{1})
	d.DisableTracking()
	if d.Tracking() || d.Records() != nil {
		t.Fatal("tracking not disabled")
	}
}

func TestRecordsReturnsDeepCopy(t *testing.T) {
	_, d := newDev()
	d.EnableTracking()
	d.WriteAt(0, []byte{1, 2, 3})
	d.Fence()
	d.WriteAt(64, []byte{4, 5})

	recs := d.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	// Mutate everything the caller can reach: the slice, the structs,
	// and the data payloads.
	recs[0].Data[0] = 99
	recs[1].Epoch = 42
	recs[1].Off = 4096
	recs = append(recs[:0], PersistRecord{})

	fresh := d.Records()
	if len(fresh) != 2 {
		t.Fatalf("device record stream corrupted: %d records", len(fresh))
	}
	if fresh[0].Data[0] != 1 {
		t.Fatalf("payload aliased: got %d, want 1", fresh[0].Data[0])
	}
	if fresh[1].Epoch != 1 || fresh[1].Off != 64 {
		t.Fatalf("record aliased: %+v", fresh[1])
	}
}

func TestZeroStoreToUntouchedPageHoldsNoPage(t *testing.T) {
	_, d := newDev()
	d.WriteAt(pageSize-3, make([]byte, 2*pageSize+9))
	d.Write8(5*pageSize, 0)
	if n := len(d.pages); n != 0 {
		t.Fatalf("zero stores materialised %d pages", n)
	}
	got := bytes.Repeat([]byte{0xff}, 3*pageSize)
	d.ReadAt(got, 0)
	if !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("untouched pages do not read back zero")
	}
}

func TestZeroStoreOverwritesPresentPage(t *testing.T) {
	_, d := newDev()
	d.WriteAt(100, bytes.Repeat([]byte{0xab}, 64))
	d.WriteAt(110, make([]byte, 20))
	got := make([]byte, 64)
	d.ReadAt(got, 100)
	want := bytes.Repeat([]byte{0xab}, 64)
	copy(want[10:30], make([]byte, 20))
	if !bytes.Equal(got, want) {
		t.Fatalf("zero store over written bytes: got %x", got)
	}
	// A page that becomes all zero stays resident.
	d.WriteAt(0, make([]byte, pageSize))
	if n := len(d.pages); n != 1 {
		t.Fatalf("pages = %d after zeroing the only page, want 1", n)
	}
}

func TestZeroStoreMaterialisesOnlyNonZeroPages(t *testing.T) {
	_, d := newDev()
	const k = 7
	b := make([]byte, 2*pageSize)
	b[pageSize+5] = 0x5a // page k+1 only
	d.WriteAt(k*pageSize, b)
	if d.pages[k] != nil || d.pages[k+1] == nil || len(d.pages) != 1 {
		t.Fatalf("resident pages: k=%v k+1=%v total=%d, want only k+1",
			d.pages[k] != nil, d.pages[k+1] != nil, len(d.pages))
	}
	got := make([]byte, len(b))
	d.ReadAt(got, k*pageSize)
	if !bytes.Equal(got, b) {
		t.Fatal("mixed zero/non-zero store did not read back")
	}
}

func TestZeroStoreIsTrackedAndCrashImageMatches(t *testing.T) {
	_, d := newDev()
	d.WriteAt(0, []byte("base"))
	d.EnableTracking()
	d.WriteAt(3*pageSize, make([]byte, 16)) // elided: untouched page
	d.WriteAt(1, make([]byte, 2))           // clears "as"
	d.Fence()
	d.WriteAt(9*pageSize+1, []byte{0, 0, 7})
	d.Fence()
	recs := d.Records()
	if len(recs) != 3 || recs[0].Off != 3*pageSize || len(recs[0].Data) != 16 {
		t.Fatalf("records = %+v, want the elided store first", recs)
	}
	if d.pages[3] != nil {
		t.Fatal("elided store materialised its page")
	}
	img := d.CrashImage([]int{0, 1, 2})
	for _, pg := range []int64{0, 3, 9} {
		want := make([]byte, pageSize)
		got := make([]byte, pageSize)
		d.ReadAt(want, pg*pageSize)
		img.ReadAt(got, pg*pageSize)
		if !bytes.Equal(got, want) {
			t.Fatalf("crash image page %d differs from the device", pg)
		}
	}
}

func TestZeroStoreReachesDirtyObserver(t *testing.T) {
	_, d := newDev()
	type store struct {
		off int64
		n   int
	}
	var seen []store
	d.SetDirtyFunc(func(off int64, n int) { seen = append(seen, store{off, n}) })
	d.WriteAt(4*pageSize, make([]byte, 10))
	d.WriteAt(8*pageSize+3, []byte{0})
	if len(seen) != 2 || seen[0] != (store{4 * pageSize, 10}) || seen[1] != (store{8*pageSize + 3, 1}) {
		t.Fatalf("dirty observer saw %v", seen)
	}
	if n := len(d.pages); n != 0 {
		t.Fatalf("zero stores materialised %d pages", n)
	}
}

// FuzzDeviceReadWrite drives a small device with zero-heavy stores, reads
// and fences, and checks every read against a flat byte model. A page
// must be resident exactly when some store has put a non-zero byte on
// it, and with tracking on, a crash image over every record must equal
// the device.
func FuzzDeviceReadWrite(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 255, 3, 0, 0, 255})
	f.Add([]byte{1, 15, 250, 3, 2, 15, 250, 3, 0, 15, 252, 0, 3, 15, 240, 1})
	f.Add([]byte{2, 0, 7, 200, 4, 0, 0, 0, 0, 0, 8, 100, 3, 0, 0, 255, 1, 255, 255, 255})
	f.Add([]byte{6, 31, 255, 2, 5, 32, 0, 1, 8, 63, 254, 9, 9, 0, 0, 0, 3, 31, 0, 255})
	f.Fuzz(func(t *testing.T, in []byte) {
		const size = 64 << 10
		d := New(sim.NewEngine(), perfmodel.MicroNode(), size)
		d.EnableTracking()
		model := make([]byte, size)
		var touched [size / pageSize]bool
		// Each 4-byte op stores up to 8 KB and tracking copies it again;
		// cap the count so mutator-grown inputs stay fast and small.
		if len(in) > 4*64 {
			in = in[:4*64]
		}
		buf := make([]byte, 256*32)
		for ; len(in) >= 4; in = in[4:] {
			op, off, n := in[0], int64(in[1])<<8|int64(in[2]), (int(in[3])+1)*32
			if rest := int(size - off); n > rest {
				n = rest
			}
			b := buf[:n]
			clear(b)
			switch op % 5 {
			case 0: // all zero
			case 1: // zero but for one byte
				b[int(op)*7%n] = op | 1
			case 2: // filled
				b[0] = op
				for k := 1; k < n; k *= 2 {
					copy(b[k:], b[:k])
				}
			case 3:
				d.ReadAt(b, off)
				if !bytes.Equal(b, model[off:off+int64(n)]) {
					t.Fatalf("read [%d, %d) differs from the model", off, off+int64(n))
				}
				continue
			case 4:
				d.Fence()
				continue
			}
			d.WriteAt(off, b)
			copy(model[off:], b)
			for lo, end := off, off+int64(n); lo < end; {
				hi := min(end, (lo/pageSize+1)*pageSize)
				if !bytes.Equal(model[lo:hi], zeroPage[:hi-lo]) {
					touched[lo/pageSize] = true
				}
				lo = hi
			}
		}
		for pg, want := range touched {
			if got := d.pages[int64(pg)] != nil; got != want {
				t.Fatalf("page %d resident = %v, want %v", pg, got, want)
			}
		}
		all := make([]int, len(d.records))
		for i := range all {
			all[i] = i
		}
		for _, dev := range []*Device{d, d.CrashImage(all)} {
			got := make([]byte, size)
			dev.ReadAt(got, 0)
			if !bytes.Equal(got, model) {
				t.Fatalf("contents differ from the model (crash image: %v)", dev != d)
			}
		}
	})
}
