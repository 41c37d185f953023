package nova

import "math/bits"

// Run is a contiguous extent of data blocks on the device.
type Run struct {
	Off   int64 // device byte offset, BlockSize-aligned
	Pages int
}

// Bytes returns the run length in bytes.
func (r Run) Bytes() int64 { return int64(r.Pages) * BlockSize }

// allocator is the DRAM free-block tracker. Like NOVA's, it is volatile:
// the persistent truth is the set of blocks reachable from inode logs, and
// mount rebuilds it.
type allocator struct {
	dataOff int64
	nblocks int64
	// used is a bitset: bit k%64 of word k/64 is set while block k is
	// allocated. Bits past nblocks in the last word stay clear.
	used []uint64
	hint int64
	free int64
}

func newAllocator(dataOff, devSize int64) *allocator {
	n := (devSize - dataOff) / BlockSize
	return &allocator{
		dataOff: dataOff,
		nblocks: n,
		used:    make([]uint64, (n+63)/64),
		free:    n,
	}
}

// FreeBlocks reports the number of unallocated blocks.
func (a *allocator) FreeBlocks() int64 { return a.free }

// wordMask splits [lo, hi) at its first word boundary: w is lo's word, m
// the bits of [lo, end) within it.
func wordMask(lo, hi int64) (w int64, m uint64, end int64) {
	w = lo >> 6
	end = min(hi, (w+1)<<6)
	m = ^uint64(0) >> (64 - (end - lo)) << (lo & 63)
	return w, m, end
}

// nextFree returns the first free block in [lo, hi), or hi if none is.
func (a *allocator) nextFree(lo, hi int64) int64 {
	for lo < hi {
		if free := ^a.used[lo>>6] >> (lo & 63); free != 0 {
			return min(lo+int64(bits.TrailingZeros64(free)), hi)
		}
		lo = (lo | 63) + 1
	}
	return hi
}

// nextUsed returns the first allocated block in [lo, hi), or hi if none is.
func (a *allocator) nextUsed(lo, hi int64) int64 {
	for lo < hi {
		if used := a.used[lo>>6] >> (lo & 63); used != 0 {
			return min(lo+int64(bits.TrailingZeros64(used)), hi)
		}
		lo = (lo | 63) + 1
	}
	return hi
}

// allocRun finds one contiguous run of up to want pages (first fit from
// the rotating hint: [hint, nblocks), then [0, hint), extending without
// wrapping). ok is false when the device is full.
func (a *allocator) allocRun(want int) (Run, bool) {
	if a.free == 0 || want <= 0 {
		return Run{}, false
	}
	i := a.nextFree(a.hint, a.nblocks)
	if i == a.nblocks {
		if i = a.nextFree(0, a.hint); i == a.hint {
			return Run{}, false
		}
	}
	end := a.nextUsed(i, min(a.nblocks, i+int64(want)))
	for k := i; k < end; {
		w, m, next := wordMask(k, end)
		a.used[w] |= m
		k = next
	}
	a.free -= end - i
	a.hint = end % a.nblocks
	return Run{Off: a.dataOff + i*BlockSize, Pages: int(end - i)}, true
}

// alloc satisfies pages blocks as a list of runs (contiguous when
// possible), appended onto dst (pass a reusable buffer's [:0] to keep
// the hot path allocation-free). ok is false when space runs out;
// partial allocations are rolled back.
func (a *allocator) alloc(dst []Run, pages int) ([]Run, bool) {
	runs := dst
	got := 0
	for got < pages {
		r, ok := a.allocRun(pages - got)
		if !ok {
			for _, u := range runs[len(dst):] {
				a.freeRun(u)
			}
			return nil, false
		}
		runs = append(runs, r)
		got += r.Pages
	}
	return runs, true
}

// blocks returns the block range [lo, hi) of pages blocks at device
// offset off, panicking if it leaves the data area.
func (a *allocator) blocks(off int64, pages int) (lo, hi int64) {
	lo = (off - a.dataOff) / BlockSize
	hi = lo + int64(pages)
	if lo < 0 || hi > a.nblocks {
		panic("nova: block run outside the data area")
	}
	return lo, hi
}

// freeRun returns a run to the pool.
func (a *allocator) freeRun(r Run) {
	lo, hi := a.blocks(r.Off, r.Pages)
	for k := lo; k < hi; {
		w, m, next := wordMask(k, hi)
		if a.used[w]&m != m {
			panic("nova: double free of block")
		}
		a.used[w] &^= m
		k = next
	}
	a.free += int64(r.Pages)
}

// markUsed claims blocks during recovery.
func (a *allocator) markUsed(off int64, pages int) {
	lo, hi := a.blocks(off, pages)
	for k := lo; k < hi; {
		w, m, next := wordMask(k, hi)
		a.free -= int64(bits.OnesCount64(m &^ a.used[w]))
		a.used[w] |= m
		k = next
	}
}
