package kernels

import (
	"fmt"

	"pcnn/internal/gpu"
)

// GEMVThreshold is the result-matrix width below which every library (and
// the P-CNN tuner) switches from tiled SGEMM to a vector kernel: with
// N < 32, even the narrowest tile wastes over half its computation on
// masked columns, and real libraries dispatch sgemv-style kernels instead.
// This path is what keeps fully-connected layers cheap at batch 1
// (Table III's non-batching column).
const GEMVThreshold = 32

// gemvBlock is the thread-block size of the vector kernel; each thread
// owns one row of the result.
const gemvBlock = 128

// BuildGEMV produces the vector kernel for an M×N·(K) product with small
// N. It is bandwidth-bound by design: each thread streams one K-length row
// of A from DRAM while B is staged once through shared memory.
func BuildGEMV(name string, m, n, k int, dev *gpu.Device) gpu.Kernel {
	if n >= GEMVThreshold {
		panic(fmt.Sprintf("kernels: BuildGEMV called with N=%d ≥ %d", n, GEMVThreshold))
	}
	fK, fN := float64(k), float64(n)
	return gpu.Kernel{
		Name:              name,
		GridSize:          ceilDiv(m, gemvBlock),
		BlockSize:         gemvBlock,
		RegsPerThread:     32,
		SharedMemPerBlock: 4 * 2 * kStep * max(n, 1), // double-buffered kStep×N B slice
		FMAInsts:          fK * fN,
		// A-row loads + staged-B shared reads + loop control.
		OtherInsts:  fK + fK*fN*0.25 + fK/kStep*4 + 20,
		GlobalBytes: 4*fK + 4*fK*fN/gemvBlock + 4*fN,
	}
}
