package tensor

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the host-side compute backend: a persistent worker pool and
// an Engine that runs every GEMM on the cache-blocked packed-panel kernels
// (blocked.go), serially below a FLOP threshold and sharded across the pool
// above it. The split mirrors the paper's view that the parallelization
// strategy of a lowered SGEMM is itself a tunable dimension of the
// per-layer kernel choice (Section IV.B) — here the tunable is
// serial-vs-sharded on the host, selected by a FLOP threshold so that small
// tuner probes never pay the pool's wake-up and barrier cost.
//
// Sharding never changes a result: every C tile is computed by one
// micro-kernel call per KC step whatever the worker count, so serial and
// sharded execution are bit-for-bit equivalent; tests in parallel_test.go,
// blocked_test.go and nn's determinism tests rely on this.

// Backend selects which GEMM kernels the engine runs.
type Backend int32

const (
	// Auto is the default and means Blocked: the routine the measurements
	// selected (BENCH_gemm.json) is the one that serves traffic.
	Auto Backend = iota
	// Serial runs the naive row kernels on the calling goroutine. It is the
	// oracle the fuzz/equivalence tests and bench/ compare against, not a
	// production path.
	Serial
	// Blocked runs the cache-blocked packed-panel kernels (blocked.go),
	// sharding (MC block × NR panel group) work items across the pool
	// above the FLOP threshold.
	Blocked
)

// String renders the backend name accepted by ParseBackend.
func (b Backend) String() string {
	switch b {
	case Auto:
		return "auto"
	case Serial:
		return "serial"
	case Blocked:
		return "blocked"
	}
	return fmt.Sprintf("Backend(%d)", int32(b))
}

// Resolved returns the kernel family the backend actually runs: Auto is
// Blocked, the other two are themselves.
func (b Backend) Resolved() Backend {
	if b == Auto {
		return Blocked
	}
	return b
}

// ParseBackend converts a name ("auto", "blocked", "serial") to a Backend.
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "auto", "":
		return Auto, nil
	case "serial":
		return Serial, nil
	case "blocked":
		return Blocked, nil
	}
	return Auto, fmt.Errorf("tensor: unknown backend %q (want auto, blocked or serial)", s)
}

// GEMMFlops returns the multiply-add FLOP count 2·M·N·K of one GEMM, the
// quantity the engine thresholds on.
func GEMMFlops(m, n, k int) int64 {
	return 2 * int64(m) * int64(n) * int64(k)
}

// DefaultParallelThreshold is the default minimum FLOP count of one sharded
// step. A blocked GEMM pays two pool barriers (pack B, then the work items)
// per KC-deep slice, so the quantity thresholded is the slice's
// 2·M·N·min(K, KC), not the whole GEMM's FLOPs — a deep, narrow product
// (32×4096×1000) is many cheap slices, not one expensive GEMM. A barrier
// that finds its worker parked costs a thread wake-up, which on a
// virtualized host is an exit to the hypervisor — tens of microseconds or
// more, twice per slice. Measured on the 2-vCPU reference host, median
// unsharded → sharded by slice size: 4.2 MFLOP (128³) 112 → 165 µs;
// 8.2 (32×1024×500) 1.9 → 2.1 ms; 16.4 (32×4096×1000) 10.5 → 18.8 ms;
// 22.2 (AlexNet conv5, 256×3456×169) 10.1 → 7.5 ms; 33.2 (conv3,
// 384×2304×169) 9.2 → 6.6 ms; 65.5 (128×1024×1000) 6.6 → 4.2 ms. Sharding
// loses through 16 MFLOP per slice and wins from 22, so the default sits
// between them: 2²⁴ is M·N = 32768 at KC = 256, ≈0.35 ms unsharded.
const DefaultParallelThreshold = 1 << 24

// poolTask is one index chunk queued on the worker pool.
type poolTask struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

// workerPool is a persistent set of goroutines consuming index chunks. It
// starts lazily on first use so that importing the package (or running
// below the threshold) never spawns goroutines.
type workerPool struct {
	once  sync.Once
	size  int // requested; resolved to GOMAXPROCS at start when <= 0
	tasks chan poolTask
}

func newWorkerPool(size int) *workerPool { return &workerPool{size: size} }

// sharedPool is the process-wide pool engines use unless given a private
// size; independent networks therefore share one set of workers.
var sharedPool = newWorkerPool(0)

func (p *workerPool) start() {
	if p.size <= 0 {
		p.size = runtime.GOMAXPROCS(0)
	}
	p.tasks = make(chan poolTask, 4*p.size)
	for i := 0; i < p.size; i++ {
		go func() {
			for t := range p.tasks {
				t.fn(t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
}

// workers returns the pool size, starting the pool if needed.
func (p *workerPool) workers() int {
	p.once.Do(p.start)
	return p.size
}

// parallelFor splits [0, n) into one chunk per worker and runs fn over the
// chunks, executing the first chunk on the calling goroutine. Chunks are
// disjoint, so the only synchronization is the final wait. Tasks never
// block inside fn, so queueing from several concurrent callers is safe.
func (p *workerPool) parallelFor(n int, fn func(lo, hi int)) {
	p.once.Do(p.start)
	chunks := p.size
	if chunks > n {
		chunks = n
	}
	if chunks <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	size := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	for lo := size; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		p.tasks <- poolTask{fn: fn, lo: lo, hi: hi, wg: &wg}
	}
	fn(0, size)
	wg.Wait()
}

// Engine executes the package's GEMM kernels under a chosen backend.
// Backend and threshold may be changed concurrently with use; the zero
// value is not usable — construct engines with NewEngine.
type Engine struct {
	backend   atomic.Int32
	threshold atomic.Int64
	precision atomic.Int32
	pool      *workerPool
}

// NewEngine creates an engine with the given backend. workers <= 0 shares
// the process-wide pool (sized by GOMAXPROCS); a positive count gives the
// engine a private pool of that size, which tests use to exercise sharding
// regardless of host CPUs.
func NewEngine(b Backend, workers int) *Engine {
	e := &Engine{pool: sharedPool}
	if workers > 0 {
		e.pool = newWorkerPool(workers)
	}
	e.backend.Store(int32(b))
	e.threshold.Store(DefaultParallelThreshold)
	return e
}

// defaultEngine serves every package-level MatMul* call: the blocked
// kernels on the shared pool at fp32. Callers that want another backend or
// precision say so through Default().SetBackend / SetPrecision (the
// commands' -backend and -precision flags).
var defaultEngine = NewEngine(Auto, 0)

// Default returns the engine behind the package-level MatMul* functions.
func Default() *Engine { return defaultEngine }

// SetBackend changes how subsequent GEMMs execute. Safe for concurrent use.
func (e *Engine) SetBackend(b Backend) { e.backend.Store(int32(b)) }

// Backend returns the engine's current backend.
func (e *Engine) Backend() Backend { return Backend(e.backend.Load()) }

// SetParallelThreshold sets the minimum FLOP count of one sharded step
// (see DefaultParallelThreshold). Safe for concurrent use.
func (e *Engine) SetParallelThreshold(flops int64) { e.threshold.Store(flops) }

// ParallelThreshold returns the sharding FLOP threshold.
func (e *Engine) ParallelThreshold() int64 { return e.threshold.Load() }

// Workers returns the size of the engine's worker pool.
func (e *Engine) Workers() int { return e.pool.workers() }

// usesBlocked reports whether a GEMM with M output rows runs on the
// blocked kernels. The Serial oracle never does, and neither does M == 1:
// a matrix–vector product touches every B element once, so packing B costs
// as much as the multiply and the MR-row register tile is 7/8 padding —
// measured 1.6–2.6× slower than the naive row kernel on all three forms
// (1×96×48 2.3 vs 4.3 µs, 1×4096×1000 1.7 vs 4.6 ms), while M ≥ 2 is at
// parity or better.
func (e *Engine) usesBlocked(m int) bool { return e.Backend() != Serial && m != 1 }

// shouldParallel reports whether one sharded step of M×N×K multiply-adds —
// a whole int8 GEMM, or one KC-deep slice of a blocked GEMM — is worth the
// pool's barriers. The blocked shard unit is an (MC block × NR panel group)
// work item rather than a row, so a GEMM can go wide even when M fits one
// block (the N dimension shards).
func (e *Engine) shouldParallel(m, n, k int) bool {
	return e.Backend() != Serial && m*n > 1 &&
		GEMMFlops(m, n, k) >= e.ParallelThreshold() && e.pool.workers() > 1
}

// blockedInto runs one blocked GEMM at the build's tile, sharding its
// KC-deep slices across the pool when one slice clears the threshold.
func (e *Engine) blockedInto(c, a, b []float32, m, n, k int, aTrans, bTrans bool) {
	parallel := e.shouldParallel(m, n, min(k, DefaultTile.KC))
	blockedGEMM(c, a, b, m, n, k, aTrans, bTrans, DefaultTile, e.pool, parallel)
}
