package nova

import (
	"fmt"
	"testing"

	"github.com/easyio-sim/easyio/internal/rng"
)

// refAllocator is the one-bool-per-block first-fit allocator the bitset
// replaced, kept as the reference the bitset must match step for step.
type refAllocator struct {
	dataOff int64
	nblocks int64
	used    []bool
	hint    int64
	free    int64
}

func (a *refAllocator) allocRun(want int) (Run, bool) {
	if a.free == 0 || want <= 0 {
		return Run{}, false
	}
	for scanned := int64(0); scanned < a.nblocks; {
		i := (a.hint + scanned) % a.nblocks
		if a.used[i] {
			scanned++
			continue
		}
		n := int64(0)
		for i+n < a.nblocks && n < int64(want) && !a.used[i+n] {
			n++
		}
		for k := int64(0); k < n; k++ {
			a.used[i+k] = true
		}
		a.free -= n
		a.hint = (i + n) % a.nblocks
		return Run{Off: a.dataOff + i*BlockSize, Pages: int(n)}, true
	}
	return Run{}, false
}

func (a *refAllocator) alloc(pages int) ([]Run, bool) {
	var runs []Run
	got := 0
	for got < pages {
		r, ok := a.allocRun(pages - got)
		if !ok {
			for _, u := range runs {
				a.freeRun(u)
			}
			return nil, false
		}
		runs = append(runs, r)
		got += r.Pages
	}
	return runs, true
}

func (a *refAllocator) freeRun(r Run) {
	i := (r.Off - a.dataOff) / BlockSize
	for k := int64(0); k < int64(r.Pages); k++ {
		if !a.used[i+k] {
			panic("double free")
		}
		a.used[i+k] = false
	}
	a.free += int64(r.Pages)
}

func (a *refAllocator) markUsed(off int64, pages int) {
	i := (off - a.dataOff) / BlockSize
	for k := int64(0); k < int64(pages); k++ {
		if !a.used[i+k] {
			a.used[i+k] = true
			a.free--
		}
	}
}

// sameState fails t unless the bitset and the reference agree on every
// block, the hint and the free count.
func sameState(t *testing.T, step string, a *allocator, ref *refAllocator) {
	t.Helper()
	if a.hint != ref.hint || a.FreeBlocks() != ref.free {
		t.Fatalf("%s: hint %d free %d, reference hint %d free %d", step, a.hint, a.FreeBlocks(), ref.hint, ref.free)
	}
	for k := int64(0); k < int64(len(a.used))*64; k++ {
		bit := a.used[k/64]>>(k%64)&1 == 1
		if want := k < ref.nblocks && ref.used[k]; bit != want {
			t.Fatalf("%s: block %d used = %v, reference %v", step, k, bit, want)
		}
	}
}

func sameRuns(t *testing.T, step string, got, want []Run) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: runs %v, reference %v", step, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: runs %v, reference %v", step, got, want)
		}
	}
}

func TestAllocatorMatchesBoolReference(t *testing.T) {
	const dataOff = 64 * BlockSize
	for _, nblocks := range []int64{1, 63, 64, 65, 1000, 4097} {
		t.Run(fmt.Sprint(nblocks), func(t *testing.T) {
			a := newAllocator(dataOff, dataOff+nblocks*BlockSize)
			ref := &refAllocator{dataOff: dataOff, nblocks: nblocks, used: make([]bool, nblocks), free: nblocks}
			r := rng.New(uint64(nblocks))
			maxRun := int(min(nblocks, 200))
			var buf []Run
			for step := 0; step < 4000; step++ {
				name := fmt.Sprintf("step %d", step)
				switch op := r.Intn(10); {
				case op == 0: // move the hint, often close to the end
					h := r.Int63n(nblocks)
					if r.Intn(2) == 0 {
						h = max(0, nblocks-1-r.Int63n(3))
					}
					a.hint, ref.hint = h, h
					name += fmt.Sprintf(" hint=%d", h)
				case op <= 3:
					want := 1 + r.Intn(maxRun)
					got, gotOK := a.allocRun(want)
					exp, expOK := ref.allocRun(want)
					name += fmt.Sprintf(" allocRun(%d)", want)
					if got != exp || gotOK != expOK {
						t.Fatalf("%s: %v %v, reference %v %v", name, got, gotOK, exp, expOK)
					}
				case op <= 5:
					pages := 1 + r.Intn(2*maxRun)
					var gotOK, expOK bool
					var exp []Run
					buf, gotOK = a.alloc(buf[:0], pages)
					exp, expOK = ref.alloc(pages)
					name += fmt.Sprintf(" alloc(%d)", pages)
					if gotOK != expOK {
						t.Fatalf("%s: ok %v, reference %v", name, gotOK, expOK)
					}
					sameRuns(t, name, buf, exp)
				case op <= 8: // free a random stretch of allocated blocks
					i := r.Int63n(nblocks)
					for i < nblocks && !ref.used[i] {
						i++
					}
					if i == nblocks {
						continue
					}
					n := 0
					for limit := 1 + r.Intn(maxRun); i+int64(n) < nblocks && n < limit && ref.used[i+int64(n)]; n++ {
					}
					run := Run{Off: dataOff + i*BlockSize, Pages: n}
					a.freeRun(run)
					ref.freeRun(run)
					name += fmt.Sprintf(" freeRun(%v)", run)
				default:
					i := r.Int63n(nblocks)
					n := 1 + r.Intn(int(min(int64(maxRun), nblocks-i)))
					a.markUsed(dataOff+i*BlockSize, n)
					ref.markUsed(dataOff+i*BlockSize, n)
					name += fmt.Sprintf(" markUsed(%d, %d)", i, n)
				}
				sameState(t, name, a, ref)
			}
		})
	}
}

func TestAllocatorRunsCrossWords(t *testing.T) {
	const dataOff = 64 * BlockSize
	a := newAllocator(dataOff, dataOff+300*BlockSize)
	a.markUsed(dataOff+60*BlockSize, 1)
	a.hint = 61
	r, ok := a.allocRun(140) // 61..200 spans words 0-3
	if !ok || r != (Run{Off: dataOff + 61*BlockSize, Pages: 140}) {
		t.Fatalf("allocRun(140) = %v %v", r, ok)
	}
	a.hint = 299
	r, ok = a.allocRun(10) // one block left at the end; no wrap
	if !ok || r != (Run{Off: dataOff + 299*BlockSize, Pages: 1}) || a.hint != 0 {
		t.Fatalf("allocRun at the end = %v %v, hint %d", r, ok, a.hint)
	}
	r, ok = a.allocRun(100) // first fit from the wrapped hint stops at block 60
	if !ok || r != (Run{Off: dataOff, Pages: 60}) || a.hint != 60 {
		t.Fatalf("allocRun after wrap = %v %v, hint %d", r, ok, a.hint)
	}
	if a.FreeBlocks() != 300-1-140-1-60 {
		t.Fatalf("free = %d", a.FreeBlocks())
	}
}

func TestAllocatorDoubleFreePanics(t *testing.T) {
	const dataOff = 64 * BlockSize
	for _, tc := range []struct {
		name         string
		first, again Run
	}{
		{"within a word", Run{dataOff + 3*BlockSize, 3}, Run{dataOff + 4*BlockSize, 1}},
		{"across a word boundary", Run{dataOff + 66*BlockSize, 1}, Run{dataOff + 60*BlockSize, 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newAllocator(dataOff, dataOff+200*BlockSize)
			if _, ok := a.alloc(nil, 100); !ok {
				t.Fatal("alloc failed")
			}
			a.freeRun(tc.first)
			defer func() {
				if recover() == nil {
					t.Fatalf("freeing %v again did not panic", tc.again)
				}
			}()
			a.freeRun(tc.again)
		})
	}
}
