// Package par provides the one fan-out primitive the ingest and
// indexing front-end shares: run n independent tasks on up to w
// workers and wait. Tasks must not panic and must be independent —
// there is no error channel and no ordering guarantee beyond "all
// done on return".
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Clamp caps a caller-supplied worker count at a few workers per core,
// max(32, 4·GOMAXPROCS), so small explicit counts behave alike on every
// machine. Counts reach the library from dcserved requests, and every
// worker carries its own state (a search node, an n-entry count array),
// so an absurd count must not become that many goroutines. Counts at or
// below the cap, 0 and negative ones included, pass through.
func Clamp(workers int) int {
	return min(workers, max(32, 4*runtime.GOMAXPROCS(0)))
}

// Do runs task(0..n-1) on up to workers goroutines and returns when
// all have completed. workers ≤ 1 (or n ≤ 1) runs inline with no
// goroutines; the worker count is clamped to n.
func Do(workers, n int, task func(int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				task(int(i))
			}
		}()
	}
	wg.Wait()
}
