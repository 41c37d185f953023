// Package core implements EasyIO, the paper's contribution: schedulable
// asynchronous I/O for slow-memory filesystems.
//
// EasyIO wraps the NOVA substrate and replaces its data paths:
//
//   - write(): the data copy is offloaded to a DMA channel and the log
//     entry is committed *before* the copy lands, stamped with the DMA
//     descriptor's SN so the persistent completion buffer witnesses
//     durability (orderless file operation, §4.2).
//   - Locking is two-level (§4.3): the per-inode lock is released at
//     metadata commit; conflicting operations gate on the in-flight DMA
//     (write-write and write-read block; read-write does not, thanks to
//     CoW).
//   - The issuing uthread parks, releasing its core to other uthreads
//     until the completion buffer advances — the harvested window.
//   - A channel manager (§4.4) steers latency-critical traffic to ≤4
//     channels, funnels bandwidth apps through one throttled channel, and
//     applies selective offload (≤4 KB → memcpy) plus read admission
//     control (queue depth < 2).
package core

import (
	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/dma"
	"github.com/easyio-sim/easyio/internal/fsapi"
	"github.com/easyio-sim/easyio/internal/invariants"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/sim"
)

// Class partitions traffic per §4.4.
type Class int

const (
	// ClassL is latency-critical traffic (default).
	ClassL Class = iota
	// ClassB is bandwidth-oriented bulk traffic (split + throttled).
	ClassB
)

// Options configures an EasyIO filesystem.
type Options struct {
	// Nova configures the underlying substrate.
	Nova nova.Options
	// Manager configures the channel manager.
	Manager ManagerOptions
	// MinDMASize is the selective-offload cutoff: I/O at or below this
	// size uses memcpy directly (§4.4). Default 4096.
	MinDMASize int
	// Naive enables the §6.4 ablation: data and metadata strictly
	// ordered in two kernel interactions, lock held throughout.
	Naive bool
	// BusyPoll makes completion waits hold the core (Fig 8's
	// single-thread latency mode) instead of parking.
	BusyPoll bool
}

func (o Options) withDefaults() Options {
	if o.MinDMASize == 0 {
		o.MinDMASize = 4096
	}
	return o
}

// FS is an EasyIO filesystem. Namespace operations (Create, Unlink,
// Rename, ...) are inherited from the NOVA substrate; the data paths
// (ReadAt, WriteAt, Append) are EasyIO's asynchronous implementations.
type FS struct {
	*nova.FS
	eng     *sim.Engine
	engines []*dma.Engine
	mgr     *Manager
	opts    Options

	// CPU-time accounting: virtual time the issuing cores spent inside
	// operations, excluding the final completion wait. This is Fig 8's
	// "EasyIO-CPU" series.
	CPUTimeWrite sim.Duration
	CPUTimeRead  sim.Duration
}

// Format formats the device for EasyIO (identical to NOVA's layout; the
// completion-buffer region is already reserved at CBRegionOff).
func Format(dev *pmem.Device, opts Options) error {
	return nova.Mkfs(dev, opts.Nova)
}

// NewEngines builds the standard two-socket DMA engine pair whose
// completion buffers live in the filesystem's persistent CB region.
func NewEngines(dev *pmem.Device, chansPerEngine int) []*dma.Engine {
	return []*dma.Engine{
		dma.NewEngine(dev, 0, chansPerEngine, nova.CBRegionOff),
		dma.NewEngine(dev, 1, chansPerEngine, nova.CBRegionOff+int64(chansPerEngine)*dma.CBStride),
	}
}

// Mount mounts an EasyIO filesystem. Recovery validates committed write
// entries against the engines' persistent completion buffers (§4.2):
// entries whose SN is not durable are discarded.
func Mount(dev *pmem.Device, engines []*dma.Engine, opts Options) (*FS, error) {
	opts = opts.withDefaults()
	opts.Nova.ValidateSN = func(engineID, chanID int, sn uint64) bool {
		if engineID >= len(engines) || chanID >= engines[engineID].NumChannels() {
			return false
		}
		return engines[engineID].Channel(chanID).DurableSN() >= sn
	}
	nfs, err := nova.Mount(dev, nova.CPUMover{}, opts.Nova)
	if err != nil {
		return nil, err
	}
	fs := &FS{
		FS:      nfs,
		eng:     dev.Engine(),
		engines: engines,
		mgr:     NewManager(dev.Engine(), engines, opts.Manager),
		opts:    opts,
	}
	return fs, nil
}

// Manager returns the channel manager.
func (fs *FS) Manager() *Manager { return fs.mgr }

// SetBusyPoll switches the completion-wait style at runtime (Fig 8 uses
// busy-polling with a single uthread per core).
func (fs *FS) SetBusyPoll(v bool) { fs.opts.BusyPoll = v }

// waitCompletion blocks the uthread until its operation's descriptors
// land: Park releases the core (the harvested window); BusyPoll holds it.
func (fs *FS) waitCompletion(t *caladan.Task) {
	// Two-level locking (§4.3): the level-1 inode lock must have been
	// released at metadata commit before the completion wait. The Naive
	// ablation deliberately violates this (prolonged critical section).
	if invariants.Enabled && !fs.opts.Naive && t.HeldULocks() > 0 {
		panic("easyio: completion wait while holding a ULock (level-1 lock not released before park)")
	}
	if fs.opts.BusyPoll {
		t.Wait()
	} else {
		t.Park()
	}
}

// waitPendingLocked is the level-2 gate (§4.3): with the inode lock held,
// block until the previous write's in-flight DMA lands. Write-after-write
// and read-after-write must wait; CoW makes read data immune to later
// writes, so writes never wait for reads.
func (fs *FS) waitPendingLocked(t *caladan.Task, ino *nova.Inode) {
	cpu := fs.CPUCosts()
	for ino.Pending > 0 {
		if t == nil {
			// Functional-context callers run outside the simulation, where
			// no DMA is ever in flight; parking a nil task would corrupt
			// the gate's wait queue. Same idiom as ULock.Lock.
			panic("easyio: nil task blocked on the inode write gate")
		}
		fs.Charge(t, cpu.PollCheck)
		if ino.Pending == 0 {
			return
		}
		ino.Gate.Wait(t)
	}
}

// WriteAt writes data at off (ClassL).
func (fs *FS) WriteAt(t *caladan.Task, f *nova.File, off int64, data []byte) (int, error) {
	return fs.WriteAtClass(t, f, off, data, ClassL)
}

// Append writes at EOF (ClassL).
func (fs *FS) Append(t *caladan.Task, f *nova.File, data []byte) (int, error) {
	return fs.WriteAtClass(t, f, -1, data, ClassL)
}

// WriteAtClass is the asynchronous write path. off < 0 appends at EOF.
func (fs *FS) WriteAtClass(t *caladan.Task, f *nova.File, off int64, data []byte, class Class) (int, error) {
	ino := f.Inode()
	cpu := fs.CPUCosts()
	start := sim.Time(0)
	if t != nil {
		start = t.Now()
	}
	fs.Charge(t, cpu.Syscall)
	ino.Mu.Lock(t)
	if ino.IsDir() {
		ino.Mu.Unlock()
		return 0, nova.ErrIsDir
	}
	if off < 0 {
		off = ino.Size
	}
	if len(data) == 0 {
		ino.Mu.Unlock()
		return 0, nil
	}
	fs.waitPendingLocked(t, ino)

	// Selective offload (§4.4): small I/O is memcpy'd synchronously —
	// the DMA engine is inefficient below 4 KB and the window is too
	// short to harvest.
	if len(data) <= fs.opts.MinDMASize || t == nil {
		defer ino.Mu.Unlock()
		prep, runs, err := fs.PrepareWrite(t, ino, off, data)
		if err != nil {
			return 0, err
		}
		nova.CPUMover{}.WriteData(t, fs.FS, runs, prep.Buf)
		fs.Device().Fence()
		entries := prep.Entries(nil)
		fs.Charge(t, cpu.MetaAppend+cpu.MetaCommit)
		tail := fs.AppendEntries(ino, entries)
		fs.CommitTail(ino, tail)
		fs.FinishWrite(t, ino, entries)
		if t != nil {
			fs.CPUTimeWrite += sim.Duration(t.Now() - start)
		}
		return len(data), nil
	}

	if fs.opts.Naive {
		return fs.writeNaive(t, ino, off, data, start)
	}
	return fs.writeOrderless(t, ino, off, data, class, start)
}

// writeOrderless is EasyIO's §4.2 path: DMA submit, then metadata commit
// in parallel with the copy, early unlock, park until the completion
// buffer advances.
func (fs *FS) writeOrderless(t *caladan.Task, ino *nova.Inode, off int64, data []byte, class Class, start sim.Time) (int, error) {
	cpu := fs.CPUCosts()
	prep, runs, err := fs.PrepareWrite(t, ino, off, data)
	if err != nil {
		ino.Mu.Unlock()
		return 0, err
	}

	// Build descriptors: ClassL gets one descriptor per contiguous run on
	// round-robin L channels; ClassB splits each run into 64 KB pieces,
	// all funneled through the shared throttled B channel. Descriptors
	// and per-run records come from the uthread scratch; the previous
	// operation's have all completed.
	sc := scratchFor(t)
	sc.resetDescs()
	subs := sc.subs[:0]
	pos := int64(0)
	for _, r := range runs {
		var sub runSub
		var buf []byte
		if prep.Buf != nil {
			buf = prep.Buf[pos : pos+r.Bytes()]
		}
		sub.lo = len(sc.descRefs)
		if class == ClassB {
			sub.ref = fs.mgr.BChannel()
			fs.mgr.SplitB(sc, true, r.Off, buf, int(r.Bytes()))
		} else {
			sub.ref = fs.mgr.NextWriteChan()
			d := sc.desc()
			d.Write = true
			d.PMOff = r.Off
			d.Size = int(r.Bytes())
			if buf != nil {
				d.Buf = buf
			}
			sc.descRefs = append(sc.descRefs, d)
		}
		sub.hi = len(sc.descRefs)
		subs = append(subs, sub)
		pos += r.Bytes()
	}
	sc.subs = subs
	totalDescs := len(sc.descRefs)

	// Completion wiring: the op finishes when every descriptor lands.
	// replaced must be cleared before the first descriptor can complete —
	// a completion may fire during the submit charge, before
	// ApplyWriteEntries runs, and must free nothing.
	sc.fs, sc.ino, sc.ut = fs, ino, t.UThread()
	sc.remaining = totalDescs
	sc.replaced = nil
	for _, d := range sc.descRefs {
		d.OnComplete = sc.onDescDone
	}

	// Submit (batched per channel) and record the SN that witnesses each
	// run (the last descriptor of the run).
	fs.Charge(t, cpu.DMASubmitBase+sim.Duration(totalDescs)*cpu.DMASubmitPerDesc)
	runSNs := sc.runSNs[:0]
	for _, sub := range subs {
		sns := fs.submitWithRetry(t, sub.ref, sc.descRefs[sub.lo:sub.hi])
		runSNs = append(runSNs, runSN{
			eng: sub.ref.Engine.ID(),
			ch:  sub.ref.Chan.ID(),
			sn:  sns[len(sns)-1],
		})
	}
	sc.runSNs = runSNs

	// Metadata commit proceeds while the DMA is in flight (§4.2).
	entries := prep.Entries(sc.snFn)
	fs.Charge(t, cpu.MetaAppend+cpu.MetaCommit)
	tail := fs.AppendEntries(ino, entries)
	fs.CommitTail(ino, tail)
	sc.replaced = fs.ApplyWriteEntries(t, ino, entries)
	ino.Pending++

	// Early unlock at metadata commit (§4.3 level-1 release) — both lock
	// and unlock happen inside this one interaction, so scheduling between
	// stages can no longer deadlock.
	ino.Mu.Unlock()
	if t != nil {
		fs.CPUTimeWrite += sim.Duration(t.Now() - start)
	}
	if sc.remaining > 0 {
		fs.waitCompletion(t)
	}
	return len(data), nil
}

// writeNaive is the §6.4 ablation: strictly ordered data -> metadata in
// two kernel interactions, with the inode lock held across the whole
// operation (including the in-flight DMA).
func (fs *FS) writeNaive(t *caladan.Task, ino *nova.Inode, off int64, data []byte, start sim.Time) (int, error) {
	cpu := fs.CPUCosts()
	prep, runs, err := fs.PrepareWrite(t, ino, off, data)
	if err != nil {
		ino.Mu.Unlock()
		return 0, err
	}
	// Interaction 1: submit the data DMA and wait for completion.
	sc := scratchFor(t)
	sc.resetDescs()
	pos := int64(0)
	for _, r := range runs {
		d := sc.desc()
		d.Write = true
		d.PMOff = r.Off
		d.Size = int(r.Bytes())
		if prep.Buf != nil {
			d.Buf = prep.Buf[pos : pos+r.Bytes()]
		}
		d.OnComplete = sc.wakeDone
		pos += r.Bytes()
		sc.descRefs = append(sc.descRefs, d)
	}
	sc.ut = t.UThread()
	sc.remaining = len(sc.descRefs)
	fs.Charge(t, cpu.DMASubmitBase+sim.Duration(len(sc.descRefs))*cpu.DMASubmitPerDesc)
	for i := range sc.descRefs {
		fs.submitWithRetry(t, fs.mgr.NextWriteChan(), sc.descRefs[i:i+1])
	}
	fs.waitCompletion(t) // lock still held: the prolonged critical section
	fs.Device().Fence()

	// Interaction 2: a second syscall commits the metadata.
	fs.Charge(t, cpu.Syscall+cpu.MetaAppend+cpu.MetaCommit)
	entries := prep.Entries(nil)
	tail := fs.AppendEntries(ino, entries)
	fs.CommitTail(ino, tail)
	fs.FinishWrite(t, ino, entries)
	ino.Mu.Unlock()
	if t != nil {
		fs.CPUTimeWrite += sim.Duration(t.Now() - start)
	}
	return len(data), nil
}

// submitWithRetry submits a batch to one channel, spinning (in virtual
// time) when the ring is full.
func (fs *FS) submitWithRetry(t *caladan.Task, ref ChanRef, descs []*dma.Desc) []uint64 {
	for {
		sns, err := ref.Chan.Submit(descs...)
		if err == nil {
			return sns
		}
		t.Compute(sim.Microsecond) // ring full: spin until it drains
	}
}

// ReadAt reads at off (ClassL).
func (fs *FS) ReadAt(t *caladan.Task, f *nova.File, off int64, buf []byte) (int, error) {
	return fs.ReadAtClass(t, f, off, buf, ClassL)
}

// ReadAtClass is the asynchronous read path: lock, gate on in-flight
// writes, snapshot the extents, unlock early (reads never block later
// writes thanks to CoW), then move the data via admission-controlled DMA
// or fall back to memcpy (Listing 2).
func (fs *FS) ReadAtClass(t *caladan.Task, f *nova.File, off int64, buf []byte, class Class) (int, error) {
	ino := f.Inode()
	cpu := fs.CPUCosts()
	start := sim.Time(0)
	if t != nil {
		start = t.Now()
	}
	fs.Charge(t, cpu.Syscall)
	if off < 0 {
		return 0, nova.ErrInvalid
	}
	ino.Mu.Lock(t)
	if ino.IsDir() {
		ino.Mu.Unlock()
		return 0, nova.ErrIsDir
	}
	fs.waitPendingLocked(t, ino)
	if off >= ino.Size {
		ino.Mu.Unlock()
		return 0, nil
	}
	n := int64(len(buf))
	if off+n > ino.Size {
		n = ino.Size - off
	}
	pages := int((off+n-1)/nova.BlockSize - off/nova.BlockSize + 1)
	fs.Charge(t, cpu.IndexBase+sim.Duration(pages)*cpu.IndexPerPage+cpu.TimestampUpdate)
	var sc *opScratch
	var runs []nova.Run
	if t != nil {
		sc = scratchFor(t)
		runs = ino.ExtentRuns(sc.extents[:0], off, n)
		sc.extents = runs
	} else {
		runs = ino.ExtentRuns(nil, off, n)
	}
	// Functional snapshot under the lock: the bytes the read returns are
	// the bytes present at its serialization point. (The real system
	// relies on CoW plus deferred frees for the same guarantee.)
	plan := nova.ReadPlan{Off: off, N: n, Buf: buf[:n]}
	plan.CopyOut(fs.FS, runs)
	ino.Mu.Unlock()

	bytes := nova.DataBytes(runs)
	if fs.opts.Naive {
		// Ablation: no admission control, no interleaving finesse —
		// offload and busy-wait in a second interaction.
		fs.Charge(t, cpu.Syscall)
	}
	moved := false
	if t != nil && bytes > int64(fs.opts.MinDMASize) {
		var ref ChanRef
		ok := false
		if class == ClassB {
			ref, ok = fs.mgr.BChannel(), true
		} else {
			ref, ok = fs.mgr.ReadChanAdmission()
		}
		if ok {
			sc.resetDescs()
			if class == ClassB {
				fs.mgr.SplitB(sc, false, firstDataOff(runs), nil, int(bytes))
			} else {
				d := sc.desc()
				d.PMOff = firstDataOff(runs)
				d.Size = int(bytes)
				sc.descRefs = append(sc.descRefs, d)
			}
			sc.ut = t.UThread()
			sc.remaining = len(sc.descRefs)
			for _, d := range sc.descRefs {
				d.OnComplete = sc.wakeDone
			}
			fs.Charge(t, cpu.DMASubmitBase+sim.Duration(len(sc.descRefs))*cpu.DMASubmitPerDesc)
			fs.submitWithRetry(t, ref, sc.descRefs)
			if t != nil {
				fs.CPUTimeRead += sim.Duration(t.Now() - start)
			}
			fs.waitCompletion(t)
			moved = true
		}
	}
	if !moved {
		// Memcpy fallback: the core streams the bytes itself.
		if t != nil {
			ut := t.UThread()
			fs.Device().StartFlow(pmem.FlowSpec{Kind: pmem.FlowCPU, Bytes: bytes,
				OnDone: ut.WakeFn()})
			t.Wait()
			fs.CPUTimeRead += sim.Duration(t.Now() - start)
		}
	}
	fs.CountRead(n)
	return int(n), nil
}

// firstDataOff returns the device offset of the first non-hole run (the
// timing descriptor's nominal address).
func firstDataOff(runs []nova.Run) int64 {
	for _, r := range runs {
		if r.Off >= 0 {
			return r.Off
		}
	}
	return 0
}

// The EasyIO FS satisfies the shared workload-facing interface.
var _ fsapi.FileSystem = (*FS)(nil)

// SetMinDMASize adjusts the selective-offload cutoff at runtime (ablation
// hook; §4.4 fixes it at 4 KB).
func (fs *FS) SetMinDMASize(n int) { fs.opts.MinDMASize = n }
