package tensor

import (
	"fmt"
	"runtime"
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
// tuner probes never pay the pool's wake-up and fork/join cost.
//
// Sharding never changes a result: every C tile is computed by one
// micro-kernel call per KC step whatever the worker count, so serial and
// sharded execution are bit-for-bit equivalent; tests in parallel_test.go,
// blocked_test.go and nn's determinism tests rely on this.

// Backend selects which GEMM kernels the engine runs.
type Backend int32

const (
	// Blocked is the default: the cache-blocked packed-panel kernels
	// (blocked.go), sharding stripes of NR panels across the pool above
	// the FLOP threshold — the routine the measurements selected
	// (BENCH_gemm.json) is the one that serves traffic.
	Blocked Backend = iota
	// Serial runs the naive row kernels on the calling goroutine. It is the
	// oracle the fuzz/equivalence tests and bench/ compare against, not a
	// production path.
	Serial
)

// String renders the backend's name.
func (b Backend) String() string {
	switch b {
	case Blocked:
		return "blocked"
	case Serial:
		return "serial"
	}
	return fmt.Sprintf("Backend(%d)", int32(b))
}

// GEMMFlops returns the multiply-add FLOP count 2·M·N·K of one GEMM, the
// quantity the engine thresholds on.
func GEMMFlops(m, n, k int) int64 {
	return 2 * int64(m) * int64(n) * int64(k)
}

// DefaultParallelThreshold is the default minimum FLOP count of one sharded
// step. The quantity thresholded is a KC-deep slice's 2·M·N·min(K, KC),
// not the whole GEMM's FLOPs — a deep, narrow product (32×4096×1000) is
// many cheap slices, not one expensive GEMM. The value was measured when a
// sharded blocked GEMM still paid two pool barriers per slice; a barrier
// that finds its worker parked costs a thread wake-up, which on a
// virtualized host is an exit to the hypervisor — tens of microseconds or
// more. Measured on the 2-vCPU reference host, median unsharded → sharded
// by slice size: 4.2 MFLOP (128³) 112 → 165 µs; 8.2 (32×1024×500) 1.9 →
// 2.1 ms; 16.4 (32×4096×1000) 10.5 → 18.8 ms; 22.2 (AlexNet conv5,
// 256×3456×169) 10.1 → 7.5 ms; 33.2 (conv3, 384×2304×169) 9.2 → 6.6 ms;
// 65.5 (128×1024×1000) 6.6 → 4.2 ms. Sharding lost through 16 MFLOP per
// slice and won from 22, so the default sits between them: 2²⁴ is
// M·N = 32768 at KC = 256, ≈0.35 ms unsharded. Sharded GEMMs now run as
// stripes with one fork/join per GEMM (blocked.go), which moves the
// break-even down; the value is kept unchanged so exactly the same GEMMs
// shard, and re-deriving it needs a ≥ 4-core host (ROADMAP, Parked).
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

// workers returns the pool size, starting the pool if needed. A nil pool
// is an engine's inline twin (see Engine.Inline): one worker, the caller.
func (p *workerPool) workers() int {
	if p == nil {
		return 1
	}
	p.once.Do(p.start)
	return p.size
}

// chunkSize is the length of parallelFor's chunks of [0, n) on this pool
// (see chunkLen).
func (p *workerPool) chunkSize(n int) int { return chunkLen(n, p.workers()) }

// chunkLen is the length of the chunks [0, n) splits into across workers:
// one chunk per worker, never more chunks than n, and n itself when one
// chunk remains. A sharded blocked GEMM's stripes are these chunks of its
// NR panels.
func chunkLen(n, workers int) int {
	chunks := min(workers, n)
	if chunks <= 1 {
		return n
	}
	return (n + chunks - 1) / chunks
}

// parallelFor splits [0, n) into one chunk per worker and runs fn over the
// chunks, executing the first chunk on the calling goroutine. Chunks are
// disjoint, so the only synchronization is the final wait. Tasks never
// block inside fn, so queueing from several concurrent callers is safe.
func (p *workerPool) parallelFor(n int, fn func(lo, hi int)) {
	size := p.chunkSize(n)
	if size >= n {
		if n > 0 {
			fn(0, n)
		}
		return
	}
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

// Engine executes the package's GEMM kernels under the backend it was
// constructed with. The threshold may be changed concurrently with use;
// the zero value is not usable — construct engines with NewEngine.
type Engine struct {
	*engineConfig
	pool   *workerPool // nil: every GEMM runs on the calling goroutine
	inline *Engine     // the same configuration with no pool, see Inline
}

// engineConfig is an engine's configuration, shared with its inline twin
// so a setting reaches both.
type engineConfig struct {
	backend   Backend // fixed at construction
	threshold atomic.Int64
	precision atomic.Int32
}

// NewEngine creates an engine with the given backend. workers <= 0 shares
// the process-wide pool (sized by GOMAXPROCS); a positive count gives the
// engine a private pool of that size, which tests use to exercise sharding
// regardless of host CPUs.
func NewEngine(b Backend, workers int) *Engine {
	cfg := &engineConfig{backend: b}
	cfg.threshold.Store(DefaultParallelThreshold)
	e := &Engine{engineConfig: cfg, pool: sharedPool}
	if workers > 0 {
		e.pool = newWorkerPool(workers)
	}
	e.inline = &Engine{engineConfig: cfg}
	e.inline.inline = e.inline
	return e
}

// defaultEngine serves every package-level MatMul* call: the blocked
// kernels on the shared pool at fp32. Callers that want the Serial oracle
// build their own engine with NewEngine; another precision is set through
// Default().SetPrecision (cmd/experiments' -precision flag).
var defaultEngine = NewEngine(Blocked, 0)

// Default returns the engine behind the package-level MatMul* functions.
func Default() *Engine { return defaultEngine }

// SetParallelThreshold sets the minimum FLOP count of one sharded step
// (see DefaultParallelThreshold). Safe for concurrent use.
func (e *Engine) SetParallelThreshold(flops int64) { e.threshold.Store(flops) }

// ParallelThreshold returns the sharding FLOP threshold.
func (e *Engine) ParallelThreshold() int64 { return e.threshold.Load() }

// Workers returns the size of the engine's worker pool (1 for Inline).
func (e *Engine) Workers() int { return e.pool.workers() }

// Inline returns the engine's twin that never shards: the same backend,
// threshold and precision (a setting on either reaches both), every GEMM
// on the calling goroutine. It is the engine for GEMMs inside a Shard.
func (e *Engine) Inline() *Engine { return e.inline }

// Shard runs fn over [0, n) split into at most Workers() contiguous
// chunks, one per pool worker with the first on the calling goroutine, and
// returns when every chunk is done; shard numbers the chunk from 0 so fn
// can index per-shard state. A chunk runs as a pool task, so its GEMMs
// must go through Inline() and it must not call Shard itself: either
// would queue work on, and wait for, the pool that is running it.
func (e *Engine) Shard(n int, fn func(shard, lo, hi int)) {
	size := e.pool.chunkSize(n)
	e.pool.parallelFor(n, func(lo, hi int) { fn(lo/size, lo, hi) })
}

// usesBlocked reports whether a GEMM with M output rows runs on the
// blocked kernels. The Serial oracle never does, and neither does M == 1:
// a matrix–vector product touches every B element once, so packing B costs
// as much as the multiply and the MR-row register tile is 7/8 padding —
// measured 1.6–2.6× slower than the naive row kernel on all three forms
// (1×96×48 2.3 vs 4.3 µs, 1×4096×1000 1.7 vs 4.6 ms), while M ≥ 2 is at
// parity or better.
func (e *Engine) usesBlocked(m int) bool { return e.backend != Serial && m != 1 }

// shouldParallel reports whether one sharded step of M×N×K multiply-adds —
// a whole int8 GEMM, or one KC-deep slice of a blocked GEMM — clears the
// threshold. The rule and DefaultParallelThreshold's value are unchanged
// since the stripes replaced the per-slice barriers, so the same GEMMs
// shard. The blocked shard unit is a stripe of NR panels rather than a
// row, so a GEMM can go wide even when M fits one block (the N dimension
// shards).
func (e *Engine) shouldParallel(m, n, k int) bool {
	return e.backend != Serial && m*n > 1 &&
		GEMMFlops(m, n, k) >= e.ParallelThreshold() && e.pool.workers() > 1
}

// blockedInto runs one blocked GEMM at the build's tile, sharding its NR
// panels into stripes across the pool when one KC-deep slice clears the
// threshold.
func (e *Engine) blockedInto(c, a, b []float32, m, n, k int, aTrans, bTrans bool) {
	parallel := e.shouldParallel(m, n, min(k, DefaultTile.KC))
	blockedGEMM(c, a, b, m, n, k, aTrans, bTrans, DefaultTile, e.pool, parallel)
}
