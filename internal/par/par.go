// Package par runs independent units of work on the host's cores. Each
// fans units out: the tuner's per-layer trials, the scenario matrix's rows
// and the fleet soak's compiles and grid rows all go through it. Units
// write their results by index, so output order is the caller's, never
// the schedule's. OnceMap is what units that share work meet at: the
// scenario engine's plan, executor and co-run caches and a serving
// executor's plan, simulation and prediction caches compute each key once.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(i) for every i in [0, n) on at most GOMAXPROCS goroutines,
// the caller's among them, and returns when every started call has
// returned. Units are claimed in index order from one atomic counter —
// goroutines, not pool tasks, so a unit may itself shard work onto a
// pool. After a unit fails no further index is claimed; every lower index
// was claimed before it and still runs to completion, so the returned
// error is the lowest-index one, the error a serial loop would return.
func Each(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if errs[i] = fn(i); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < min(runtime.GOMAXPROCS(0), n); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
