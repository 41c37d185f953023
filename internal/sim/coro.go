//go:build go1.23

// The module's go directive stays at 1.22 because _perfbench, which
// builds this module as a dependency, pins go 1.22, and Go refuses a
// dependency whose go line is newer than the main module's. The build
// constraint raises only this file's language version, which is what
// iter.Pull needs.

package sim

import "iter"

// start creates the iter.Pull coroutine backing on first resume. The
// runtime allocates the coroutine's goroutine and stack, so this lives
// behind //easyio:coldpath: it happens once per proc lifetime, never in
// steady state.
//
//easyio:coldpath (one-time coroutine-backing launch per proc)
func (p *Proc) start() {
	//easyio:allow nakedgo (the one sanctioned goroutine: Proc coroutine backing; coroswitch hands control directly between engine and coroutine, so *Proc is only ever touched by whichever goroutine holds the switch)
	p.next, p.stop = iter.Pull(p.body)
}
