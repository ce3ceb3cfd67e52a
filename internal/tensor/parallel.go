package tensor

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// This file is the host-side compute backend: an Engine that runs every
// GEMM on the cache-blocked packed-panel kernels (blocked.go), serially
// below a FLOP threshold and sharded above it. A sharded step is one
// par.Chunks fork/join: the caller runs the first chunk and each other
// chunk runs on a goroutine that exits when it is done, so there is no
// pool to start, size or stop. The split mirrors the paper's view that
// the parallelization strategy of a lowered SGEMM is itself a tunable
// dimension of the per-layer kernel choice (Section IV.B) — here the
// tunable is serial-vs-sharded on the host, selected by a FLOP threshold
// so that small tuner probes never pay a goroutine wake-up and fork/join.
//
// Sharding never changes a result: every C tile is computed by one
// micro-kernel call per KC step whatever the worker count, so serial and
// sharded execution are bit-for-bit equivalent; tests in parallel_test.go,
// blocked_test.go and nn's determinism tests rely on this.

// Backend selects which GEMM kernels the engine runs.
type Backend int32

const (
	// Blocked is the default: the cache-blocked packed-panel kernels
	// (blocked.go), sharding stripes of NR panels across goroutines above
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
// sharded blocked GEMM still paid two worker-pool barriers per slice; a
// barrier that finds its worker parked costs a thread wake-up, which on a
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

// Engine executes the package's GEMM kernels under the backend it was
// constructed with. The threshold may be changed concurrently with use;
// the zero value is not usable — construct engines with NewEngine.
type Engine struct {
	backend   Backend // fixed at construction
	workers   int     // > 0: fixed; otherwise GOMAXPROCS at each call
	threshold atomic.Int64
	precision atomic.Int32
}

// NewEngine creates an engine with the given backend. workers <= 0 follows
// GOMAXPROCS, read whenever a GEMM clears the threshold; a positive count
// fixes how many chunks a sharded step splits into, which tests use to
// exercise sharding regardless of host CPUs.
func NewEngine(b Backend, workers int) *Engine {
	e := &Engine{backend: b, workers: workers}
	e.threshold.Store(DefaultParallelThreshold)
	return e
}

// defaultEngine serves every package-level MatMul* call: the blocked
// kernels, sharded across GOMAXPROCS, at fp32. Callers that want the
// Serial oracle build their own engine with NewEngine; another precision
// is set through Default().SetPrecision (cmd/experiments' -precision flag).
var defaultEngine = NewEngine(Blocked, 0)

// Default returns the engine behind the package-level MatMul* functions.
func Default() *Engine { return defaultEngine }

// SetParallelThreshold sets the minimum FLOP count of one sharded step
// (see DefaultParallelThreshold). Safe for concurrent use.
func (e *Engine) SetParallelThreshold(flops int64) { e.threshold.Store(flops) }

// ParallelThreshold returns the sharding FLOP threshold.
func (e *Engine) ParallelThreshold() int64 { return e.threshold.Load() }

// Workers returns how many chunks a sharded step splits into: the count
// the engine was built with, or the current GOMAXPROCS.
func (e *Engine) Workers() int {
	if e.workers > 0 {
		return e.workers
	}
	return runtime.GOMAXPROCS(0)
}

// usesBlocked reports whether a GEMM with M output rows runs on the
// blocked kernels. The Serial oracle never does, and neither does M == 1:
// a matrix–vector product touches every B element once, so packing B costs
// as much as the multiply and the MR-row register tile is 7/8 padding —
// measured 1.6–2.6× slower than the naive row kernel on all three forms
// (1×96×48 2.3 vs 4.3 µs, 1×4096×1000 1.7 vs 4.6 ms), while M ≥ 2 is at
// parity or better.
func (e *Engine) usesBlocked(m int) bool { return e.backend != Serial && m != 1 }

// chunks returns how many chunks one sharded step of M×N×K multiply-adds
// — a whole int8 GEMM, or one KC-deep slice of a blocked GEMM — splits
// into: Workers() when it clears the threshold, else 1. The rule and
// DefaultParallelThreshold's value are unchanged since the stripes
// replaced the per-slice barriers, so the same GEMMs shard. The blocked
// shard unit is a stripe of NR panels rather than a row, so a GEMM can go
// wide even when M fits one block (the N dimension shards). Workers() is
// read last, so a GEMM below the threshold never asks for GOMAXPROCS.
func (e *Engine) chunks(m, n, k int) int {
	if e.backend == Serial || m*n <= 1 || GEMMFlops(m, n, k) < e.ParallelThreshold() {
		return 1
	}
	return e.Workers()
}

// blockedInto runs one blocked GEMM at the build's tile, sharding its NR
// panels into stripes when one KC-deep slice clears the threshold.
func (e *Engine) blockedInto(c, a, b []float32, m, n, k int, aTrans, bTrans bool) {
	blockedGEMM(c, a, b, m, n, k, aTrans, bTrans, DefaultTile, e.chunks(m, n, min(k, DefaultTile.KC)))
}
