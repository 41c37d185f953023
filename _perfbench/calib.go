package main

import (
	"sort"
	"sync"
	"time"
)

// Host-speed calibration. A shared 2-vCPU host drifts by tens of percent
// in throughput over tens of seconds, which would swamp any code change.
// Before every timed iteration the benchmark runs a fixed host-only
// kernel (map updates, small sorts, indirect calls: the instruction mix
// of an event simulator) that touches no repository code, and scales the
// iteration's host times by calRefS / (kernel wall time). Host times are
// thus reported as on a reference host where the kernel takes calRefS.

// calRefS is the kernel's wall time on the reference host.
const calRefS = 0.05

// calibrate runs the kernel once on each of `workers` goroutines at the
// same time (matching the parallelism of the timed phase) and returns
// the wall time in seconds.
func calibrate(workers int) float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calKernel()
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// calKernel is the calibration kernel.
func calKernel() {
	const n = 1 << 15
	m := make(map[uint64]uint64, n)
	keys := make([]uint64, 0, 256)
	x := uint64(0x9e3779b97f4a7c15)
	f := func(v uint64) uint64 { return v*0xbf58476d1ce4e5b9 ^ v>>31 }
	for round := 0; round < 12; round++ {
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			m[x&(n*4-1)] += f(x)
			if len(keys) < cap(keys) {
				keys = append(keys, x)
				continue
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			keys = keys[:0]
		}
	}
}
