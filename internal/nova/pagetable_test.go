package nova

import (
	"bytes"
	"errors"
	"testing"

	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/sim"
)

// remount mounts dev afresh, as after a crash or reboot.
func remount(t *testing.T, dev *pmem.Device) *FS {
	t.Helper()
	fs, err := Mount(dev, CPUMover{}, Options{NumInodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// fill returns n bytes of b.
func fill(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

func TestTruncateThenRegrowLeavesHoles(t *testing.T) {
	_, dev, fs := newFS(t)
	before := fs.FreeBlocks()
	f, _ := fs.Create(nil, "/f")
	if _, err := fs.WriteAt(nil, f, 0, fill(0xaa, 16*BlockSize)); err != nil {
		t.Fatal(err)
	}
	cut := int64(2*BlockSize + 100)
	if err := fs.Truncate(nil, f, cut); err != nil {
		t.Fatal(err)
	}
	// Regrow within the table's capacity: page 10 of the old 16.
	tailOff := int64(10 * BlockSize)
	if _, err := fs.WriteAt(nil, f, tailOff, []byte("tail")); err != nil {
		t.Fatal(err)
	}

	check := func(fs *FS, f *File, when string) {
		t.Helper()
		ino := f.Inode()
		for pg := int64(3); pg < 10; pg++ {
			if b := ino.BlockFor(pg); b != -1 {
				t.Fatalf("%s: BlockFor(%d) = %d after truncate, want -1", when, pg, b)
			}
		}
		got := make([]byte, tailOff+4)
		if n, err := fs.ReadAt(nil, f, 0, got); err != nil || n != len(got) {
			t.Fatalf("%s: read = %d, %v", when, n, err)
		}
		if !bytes.Equal(got[:cut], fill(0xaa, int(cut))) {
			t.Fatalf("%s: data before the cut changed", when)
		}
		if !bytes.Equal(got[cut:tailOff], make([]byte, tailOff-cut)) {
			t.Fatalf("%s: truncated range does not read as zeros", when)
		}
		if string(got[tailOff:]) != "tail" {
			t.Fatalf("%s: tail = %q", when, got[tailOff:])
		}
	}
	check(fs, f, "live")

	fs2 := remount(t, dev)
	f2, err := fs2.Open(nil, "/f")
	if err != nil {
		t.Fatal(err)
	}
	check(fs2, f2, "remount")

	// A stale block left in the table would be freed twice here.
	if err := fs2.Unlink(nil, "/f"); err != nil {
		t.Fatal(err)
	}
	if fs2.FreeBlocks() != before {
		t.Fatalf("free blocks = %d after unlink, want %d", fs2.FreeBlocks(), before)
	}
}

func TestSparseFarWriteReadsHolesAsZeros(t *testing.T) {
	_, dev, fs := newFS(t)
	f, _ := fs.Create(nil, "/sparse")
	off := int64(1000*BlockSize + 7)
	if _, err := fs.WriteAt(nil, f, off, []byte("far")); err != nil {
		t.Fatal(err)
	}
	for _, fs := range []*FS{fs, remount(t, dev)} {
		f, err := fs.Open(nil, "/sparse")
		if err != nil {
			t.Fatal(err)
		}
		for pg := int64(0); pg < 1000; pg++ {
			if b := f.Inode().BlockFor(pg); b != -1 {
				t.Fatalf("BlockFor(%d) = %d, want a hole", pg, b)
			}
		}
		got := fill(0xff, int(off)+3)
		if n, err := fs.ReadAt(nil, f, 0, got); err != nil || n != len(got) {
			t.Fatalf("read = %d, %v", n, err)
		}
		if !bytes.Equal(got[:off], make([]byte, off)) {
			t.Fatal("holes do not read as zeros")
		}
		if string(got[off:]) != "far" {
			t.Fatalf("data = %q", got[off:])
		}
	}
}

func TestUnlinkOfOneMegabyteFileRestoresFreeBlocks(t *testing.T) {
	_, _, fs := newFS(t)
	before := fs.FreeBlocks()
	f, _ := fs.Create(nil, "/m")
	if _, err := fs.WriteAt(nil, f, 0, make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.Unlink(nil, "/m"); err != nil {
		t.Fatal(err)
	}
	if got := fs.FreeBlocks(); got != before {
		t.Fatalf("free blocks = %d, want %d", got, before)
	}
}

func TestSteadyStateOverwriteAndExtentsDoNotAllocate(t *testing.T) {
	// EphemeralData keeps the device's first-touch paging of each fresh
	// CoW block out of the count. The log still takes a fresh page about
	// every 75 entries, which rounds to 0 allocations per run.
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 256<<20)
	opts := Options{NumInodes: 1024, EphemeralData: true}
	if err := Mkfs(dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev, CPUMover{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create(nil, "/f")
	data := make([]byte, 16*BlockSize)
	if _, err := fs.WriteAt(nil, f, 0, data); err != nil {
		t.Fatal(err)
	}
	runs := make([]Run, 0, 32)
	cycle := func() {
		if _, err := fs.WriteAt(nil, f, 0, data); err != nil {
			t.Fatal(err)
		}
		runs = f.Inode().ExtentRuns(runs[:0], 0, f.Size())
	}
	cycle() // size the arena and the log page for the steady state
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("overwrite + ExtentRuns allocates %.1f times per op, want 0", a)
	}
}

func TestNegativeOffsetsAreInvalid(t *testing.T) {
	_, _, fs := newFS(t)
	f, _ := fs.Create(nil, "/f")
	if _, err := fs.WriteAt(nil, f, -1, []byte("x")); err != ErrInvalid {
		t.Fatalf("WriteAt(-1) = %v, want ErrInvalid", err)
	}
	if _, err := fs.ReadAt(nil, f, -BlockSize, make([]byte, 8)); err != ErrInvalid {
		t.Fatalf("ReadAt(-BlockSize) = %v, want ErrInvalid", err)
	}
	if err := fs.Truncate(nil, f, -1); err != ErrInvalid {
		t.Fatalf("Truncate(-1) = %v, want ErrInvalid", err)
	}
	if f.Size() != 0 || f.Inode().BlockFor(-1) != -1 {
		t.Fatal("rejected calls changed the file")
	}
}

func TestWritePastDeviceCapacityIsTooBig(t *testing.T) {
	_, _, fs := newFS(t)
	f, _ := fs.Create(nil, "/f")
	free := fs.FreeBlocks()
	capacity := fs.alloc.nblocks * BlockSize
	for _, off := range []int64{capacity, capacity - 2, 1 << 62} {
		if _, err := fs.WriteAt(nil, f, off, []byte("xyz")); err != ErrFileTooBig {
			t.Fatalf("WriteAt(%d) = %v, want ErrFileTooBig", off, err)
		}
	}
	if err := fs.Truncate(nil, f, capacity-1); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Append(nil, f, []byte("xy")); err != ErrFileTooBig {
		t.Fatalf("Append past capacity = %v, want ErrFileTooBig", err)
	}
	if len(f.Inode().index) != 0 || fs.FreeBlocks() != free {
		t.Fatalf("rejected writes grew the table to %d pages or took blocks", len(f.Inode().index))
	}
}

func TestMountRejectsOutOfBoundsEntries(t *testing.T) {
	blk := dataOffFor(1024) // first data block of newFS's device
	cases := []struct {
		name string
		e    Entry
	}{
		{"negative file offset", Entry{Type: etWrite, FileOff: -BlockSize, Size: BlockSize, BlockOff: blk, Pages: 1}},
		{"pages past capacity", Entry{Type: etWrite, FileOff: 1 << 50, Size: BlockSize, BlockOff: blk, Pages: 1}},
		{"negative page count", Entry{Type: etWrite, Size: BlockSize, BlockOff: blk, Pages: -3}},
		{"block in the superblock", Entry{Type: etWrite, Size: BlockSize, BlockOff: 0, Pages: 1}},
		{"blocks past the device", Entry{Type: etWrite, Size: BlockSize, BlockOff: 255 << 20, Pages: 512}},
		{"negative setattr size", Entry{Type: etSetAttr, NewSize: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, dev, fs := newFS(t)
			f, _ := fs.Create(nil, "/f")
			fs.WriteAt(nil, f, 0, []byte("ok"))
			// Commit the entry straight to the log, past the write
			// path's checks, as a corrupted log would hold it.
			ino := f.Inode()
			fs.CommitTail(ino, fs.AppendEntries(ino, []*Entry{&tc.e}))
			_, err := Mount(dev, CPUMover{}, Options{NumInodes: 1024})
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Mount = %v, want ErrCorrupt", err)
			}
		})
	}
}
