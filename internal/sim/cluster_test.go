package sim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/easyio-sim/easyio/internal/rng"
)

// TestClusterPingPong: two linked domains exchange a token; every hop
// respects the link floor and the alternation is exact.
func TestClusterPingPong(t *testing.T) {
	c := NewCluster(2)
	var aTimes, bTimes []Time
	var a, b *Domain
	hops := 0
	var onA, onB func()
	onA = func() {
		aTimes = append(aTimes, a.Engine().Now())
		if hops < 10 {
			hops++
			a.Send(b, 5, onB)
		}
	}
	onB = func() {
		bTimes = append(bTimes, b.Engine().Now())
		if hops < 10 {
			hops++
			b.Send(a, 5, onA)
		}
	}
	a = c.AddDomain("a", func(d *Domain) { d.Engine().After(0, onA) })
	b = c.AddDomain("b", nil)
	c.Link(a, b, 5)
	c.Link(b, a, 5)
	c.Run()
	if hops != 10 {
		t.Fatalf("hops = %d, want 10", hops)
	}
	if len(aTimes) != 6 || len(bTimes) != 5 {
		t.Fatalf("a saw %d volleys, b saw %d; want 6 and 5", len(aTimes), len(bTimes))
	}
	for i, ts := range aTimes {
		if want := Time(10 * i); ts != want {
			t.Fatalf("a volley %d at %v, want %v", i, ts, want)
		}
	}
	for i, ts := range bTimes {
		if want := Time(10*i + 5); ts != want {
			t.Fatalf("b volley %d at %v, want %v", i, ts, want)
		}
	}
}

// ringScenario runs a 5-domain bidirectional ring where every domain
// interleaves local timer chains with cross-domain sends at seeded jitter,
// and returns a digest of every domain's observation log and sequence
// counter. The digest must be byte-identical for any worker count.
func ringScenario(workers int, seed uint64) uint64 {
	const n = 5
	c := NewCluster(workers)
	doms := make([]*Domain, n)
	logs := make([][]int64, n)
	for i := 0; i < n; i++ {
		i := i
		doms[i] = c.AddDomain(fmt.Sprintf("ring%d", i), func(d *Domain) {
			g := rng.New(seed).Fork(uint64(i))
			count := 0
			var tick func()
			tick = func() {
				logs[i] = append(logs[i], int64(d.Engine().Now()))
				count++
				if count%3 == 0 {
					j := (i + 1) % n
					dst := doms[j]
					stamp := int64(d.Engine().Now())
					d.Send(dst, Duration(10+g.Intn(20)), func() {
						logs[j] = append(logs[j], stamp^int64(dst.Engine().Now())<<1)
					})
				}
				if count%5 == 0 {
					j := (i + n - 1) % n
					dst := doms[j]
					d.Send(dst, Duration(10+g.Intn(5)), func() {
						logs[j] = append(logs[j], int64(dst.Engine().Now())*3)
					})
				}
				if count < 40 {
					d.Engine().After(Duration(1+g.Intn(50)), tick)
				}
			}
			d.Engine().After(Duration(1+g.Intn(5)), tick)
		})
	}
	for i := 0; i < n; i++ {
		c.Link(doms[i], doms[(i+1)%n], 10)
		c.Link(doms[i], doms[(i+n-1)%n], 10)
	}
	c.Run()
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for k := 0; k < 8; k++ {
			buf[k] = byte(v >> (8 * k))
		}
		h.Write(buf[:])
	}
	for i := 0; i < n; i++ {
		w64(doms[i].Engine().Sequence())
		w64(uint64(doms[i].Engine().Now()))
		for _, v := range logs[i] {
			w64(uint64(v))
		}
	}
	return h.Sum64()
}

// TestClusterDeterminismAcrossWorkers: the ring digest is identical for
// workers ∈ {1,2,4,8}, and distinct seeds still diverge under the
// multi-domain merge.
func TestClusterDeterminismAcrossWorkers(t *testing.T) {
	base := ringScenario(1, 42)
	for _, w := range []int{2, 4, 8} {
		if got := ringScenario(w, 42); got != base {
			t.Fatalf("digest with %d workers = %#x, want %#x", w, got, base)
		}
	}
	if other := ringScenario(4, 43); other == base {
		t.Fatal("distinct seeds produced identical digests")
	}
}

// TestClusterUnlinkedMatchesSingleEngine: domains with no links behave
// exactly like independent engines run with RunUntil.
func TestClusterUnlinkedMatchesSingleEngine(t *testing.T) {
	run := func(workers int) [3]uint64 {
		c := NewCluster(workers)
		var out [3]uint64
		for i := 0; i < 3; i++ {
			i := i
			d := c.AddDomain(fmt.Sprintf("solo%d", i), func(d *Domain) {
				e := d.Engine()
				n := 0
				var chain func()
				chain = func() {
					n++
					if n < 100+10*i {
						e.After(Duration(1+i), chain)
					}
				}
				e.After(1, chain)
			})
			d.SetDeadline(Time(1000))
		}
		c.Run()
		for i, d := range c.domains {
			if d.eng.Now() != 1000 {
				t.Fatalf("domain %d clock %v, want 1000", i, d.eng.Now())
			}
			out[i] = d.eng.Sequence()
		}
		return out
	}
	if run(1) != run(4) {
		t.Fatal("unlinked domains diverged across worker counts")
	}
}

// TestClusterDeadline: a self-rescheduling domain stops exactly at its
// deadline even while linked to an active neighbor.
func TestClusterDeadline(t *testing.T) {
	c := NewCluster(2)
	ticks := 0
	var last Time
	a := c.AddDomain("a", func(d *Domain) {
		e := d.Engine()
		var tick func()
		tick = func() {
			ticks++
			last = e.Now()
			e.After(7, tick)
		}
		e.After(0, tick)
	})
	b := c.AddDomain("b", func(d *Domain) {
		e := d.Engine()
		var tick func()
		tick = func() { e.After(13, tick) }
		e.After(0, tick)
	})
	c.Link(a, b, 3)
	c.Link(b, a, 3)
	a.SetDeadline(100)
	b.SetDeadline(100)
	c.Run()
	if a.Engine().Now() != 100 || b.Engine().Now() != 100 {
		t.Fatalf("clocks %v %v, want 100 100", a.Engine().Now(), b.Engine().Now())
	}
	if want := 100/7 + 1; ticks != want {
		t.Fatalf("ticks = %d, want %d", ticks, want)
	}
	if last != Time(98) {
		t.Fatalf("last tick at %v, want 98", last)
	}
}

// TestClusterSendValidation: unlinked sends, floor-violating delays and
// out-of-event sends all panic.
func TestClusterSendValidation(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	c := NewCluster(1)
	var a, b, lone *Domain
	a = c.AddDomain("a", func(d *Domain) {
		d.Engine().After(0, func() {
			expectPanic("unlinked send", func() { d.Send(lone, 10, func() {}) })
			expectPanic("below-floor send", func() { d.Send(b, 4, func() {}) })
		})
	})
	b = c.AddDomain("b", nil)
	lone = c.AddDomain("lone", nil)
	c.Link(a, b, 5)
	c.Run()
	expectPanic("send outside event context", func() { a.Send(b, 5, func() {}) })
}

// TestClusterPanicDeterministic: when several domains panic in one round,
// the lowest domain id is re-raised for every worker count, whether the
// panic comes from an event callback or unwinds out of a proc body.
func TestClusterPanicDeterministic(t *testing.T) {
	sources := []struct {
		name string
		arm  func(e *Engine, msg string)
	}{
		{"event", func(e *Engine, msg string) {
			e.After(0, func() { panic(msg) })
		}},
		{"proc", func(e *Engine, msg string) {
			e.StartProc("bomb", func(p *Proc) {
				p.Sleep(1)
				panic(msg)
			})
		}},
	}
	for _, src := range sources {
		for _, workers := range []int{1, 4} {
			got := func() (r any) {
				defer func() { r = recover() }()
				c := NewCluster(workers)
				for i := 0; i < 4; i++ {
					i := i
					c.AddDomain(fmt.Sprintf("p%d", i), func(d *Domain) {
						src.arm(d.Engine(), fmt.Sprintf("boom %d", i))
					})
				}
				c.Run()
				return nil
			}()
			if got != "boom 0" {
				t.Fatalf("%s panic, workers=%d: re-raised %v, want boom 0", src.name, workers, got)
			}
		}
	}
}
