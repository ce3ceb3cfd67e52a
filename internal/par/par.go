// Package par runs independent units of work on the host's cores. Each
// fans units out: the tuner's per-layer trials, the scenario matrix's rows
// and the fleet soak's compiles and grid rows all go through it. Units
// write their results by index, so output order is the caller's, never
// the schedule's. Chunks is the fork/join for splitting one range into
// contiguous pieces: a sharded GEMM's stripes, a conv backward's sample
// shards and the int8 GEMM's rows. OnceMap is what units that share work
// meet at: the scenario engine's plan, executor and co-run caches and a
// serving executor's plan, simulation and prediction caches compute each
// key once.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(i) for every i in [0, n) on at most GOMAXPROCS goroutines,
// the caller's among them, and returns when every started call has
// returned. Units are claimed in index order from one atomic counter by
// goroutines this call starts and waits for, so a unit may itself fan out
// (Chunks or Each). After a unit fails no further index is claimed; every
// lower index was claimed before it and still runs to completion, so the
// returned error is the lowest-index one, the error a serial loop would
// return.
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

// Chunks splits [0, n) into at most parts contiguous chunks of chunkLen
// each (the last may be shorter) and calls fn(chunk, lo, hi) for every
// chunk, numbered from 0. Chunk 0 runs on the caller; every other chunk
// runs on a goroutine of its own that exits when its chunk is done, and
// Chunks returns once all have. Nothing outlives the call, and a chunk may
// itself call Chunks. With one part or n = 1, fn runs once on the caller
// and no goroutine starts; with n = 0 it does not run.
func Chunks(n, parts int, fn func(chunk, lo, hi int)) {
	size := chunkLen(n, parts)
	if size >= n {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	var wg sync.WaitGroup
	for c, lo := 1, size; lo < n; c, lo = c+1, lo+size {
		hi := min(lo+size, n)
		wg.Add(1)
		go func() {
			fn(c, lo, hi)
			wg.Done()
		}()
	}
	fn(0, 0, size)
	wg.Wait()
}

// chunkLen is the length of the chunks [0, n) splits into across parts:
// one chunk per part, never more chunks than n, and n itself when one
// chunk remains.
func chunkLen(n, parts int) int {
	chunks := min(parts, n)
	if chunks <= 1 {
		return n
	}
	return (n + chunks - 1) / chunks
}
