package sim

import "testing"

// TestWheelNoAllocs pins the schedule/fire contract the noalloc analyzer
// certifies statically for the //easyio:hotpath roots wheel.insert and
// wheel.advance: once the event freelist and wheel slots reach their
// high-water marks, a schedule-then-fire cycle performs no heap
// allocation. The delays sweep several wheel levels plus the far-future
// overflow heap, so cascading and heap maintenance are in the loop too.
func TestWheelNoAllocs(t *testing.T) {
	eng := NewEngine()
	defer eng.Shutdown()
	fn := func() {}
	delays := []Duration{
		1, 3, 100, 255, // level 0
		300, 4 << 10, // level 1
		1 << 20, // higher level
		1 << 30, // beyond the wheel horizon: overflow heap
	}
	cycle := func() {
		for _, d := range delays {
			eng.After(d, fn)
		}
		eng.RunFor(1 << 31)
	}
	// Warm the freelist, slot slices and overflow heap to high water.
	for i := 0; i < 10; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("timer-wheel schedule/fire allocates %.1f times per cycle", a)
	}
}

// TestSwitchNoAllocs pins the proc switch as allocation-free. The
// noalloc certification counts the coroutine's next/yield function-value
// calls as dynamic holes, so this is the backstop for them: once warm, a
// Sleep→resume lap, a bare Pause/Resume pair and a Cond.Broadcast wake of
// four waiters each allocate nothing.
func TestSwitchNoAllocs(t *testing.T) {
	t.Run("sleep-resume lap", func(t *testing.T) {
		eng := NewEngine()
		defer eng.Shutdown()
		eng.StartProc("sleeper", func(p *Proc) {
			for {
				p.Sleep(1)
			}
		})
		lap := func() { eng.RunFor(1) }
		wantNoAllocs(t, lap)
	})
	t.Run("pause-resume pair", func(t *testing.T) {
		eng := NewEngine()
		defer eng.Shutdown()
		p := eng.StartProc("pauser", func(p *Proc) {
			for {
				p.Pause()
			}
		})
		resume := func() { p.Resume() }
		pair := func() {
			eng.After(0, resume)
			eng.Run()
		}
		wantNoAllocs(t, pair)
	})
	t.Run("broadcast to four waiters", func(t *testing.T) {
		eng := NewEngine()
		defer eng.Shutdown()
		c := NewCond(eng)
		for i := 0; i < 4; i++ {
			eng.StartProc("waiter", func(p *Proc) {
				for {
					c.Wait(p)
				}
			})
		}
		broadcast := func() { c.Broadcast() }
		wake := func() {
			eng.After(0, broadcast)
			eng.Run()
			if c.Waiters() != 4 {
				t.Fatalf("%d waiters re-parked, want 4", c.Waiters())
			}
		}
		wantNoAllocs(t, wake)
	})
}

// wantNoAllocs warms f to high water, then asserts it allocates nothing.
func wantNoAllocs(t *testing.T, f func()) {
	t.Helper()
	for i := 0; i < 10; i++ {
		f()
	}
	if a := testing.AllocsPerRun(100, f); a != 0 {
		t.Fatalf("allocates %.1f times per run", a)
	}
}
