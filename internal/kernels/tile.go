// Package kernels models the SGEMM kernels that convolutional layers lower
// to (Volkov–Demmel style register-tiled matrix multiply), the two tuning
// knobs the paper identifies — sub-matrix (tile) size and registers per
// thread — and the deep-learning-library selection policies (cuBLAS,
// cuDNN, Nervana) whose choices Section III characterizes.
//
// A TileConfig plus GEMM dimensions produce a gpu.Kernel whose instruction
// mix and memory traffic follow the classic shared-memory-staged GEMM:
// each CTA computes one m×n tile of the result, staging A and B panels
// through shared memory in kStep-deep slices while each thread accumulates
// a tm×tn register sub-tile.
package kernels

import (
	"fmt"
	"math"
	"slices"

	"pcnn/internal/gpu"
)

// kStep is the K-depth of one shared-memory staging slice.
const kStep = 8

// TileConfig describes one SGEMM tiling variant.
type TileConfig struct {
	M, N      int // sub-matrix size m×n (the paper's tuning knob #1)
	BlockSize int // threads per CTA
	BaseRegs  int // curReg: natural register usage per thread
	SharedMem int // bytes of shared memory per CTA (double buffering included)
}

// String renders "m×n".
func (t TileConfig) String() string { return fmt.Sprintf("%dx%d", t.M, t.N) }

// OutputsPerThread returns the register sub-tile area tm·tn.
func (t TileConfig) OutputsPerThread() int { return t.M * t.N / t.BlockSize }

// regTileEdges returns (tm, tn), the per-thread register tile shape,
// assumed square-ish.
func (t TileConfig) regTileEdges() (tm, tn int) {
	out := t.OutputsPerThread()
	tm = int(math.Sqrt(float64(out)))
	for out%tm != 0 {
		tm--
	}
	return tm, out / tm
}

// Validate reports an error for incoherent configurations.
func (t TileConfig) Validate() error {
	switch {
	case t.M <= 0 || t.N <= 0 || t.BlockSize <= 0:
		return fmt.Errorf("kernels: tile %s: non-positive dimension", t)
	case (t.M*t.N)%t.BlockSize != 0:
		return fmt.Errorf("kernels: tile %s: %d threads do not divide %d outputs", t, t.BlockSize, t.M*t.N)
	case t.BaseRegs <= 0 || t.SharedMem < 0:
		return fmt.Errorf("kernels: tile %s: bad resource usage", t)
	}
	return nil
}

// StandardTiles returns the tile configurations observed across the three
// libraries (Section IV.B.2 lists 128×128, 128×64 and 128×32 as the common
// CNN tiles; Table IV adds cuBLAS's 64×64 on Kepler and cuDNN's 32×32 on
// mobile). Register and shared-memory numbers for 64×64, 128×64 and 32×32
// match Table IV.
func StandardTiles() []TileConfig { return slices.Clone(standardTiles) }

// standardTiles is the table StandardTiles copies out; Select and
// TileByName read it in place.
var standardTiles = []TileConfig{
	// 128×128 stages single-buffered kStep/2-deep slices, keeping its
	// shared-memory footprint small enough that registers — not shared
	// memory — limit occupancy, which is what produces the TLP 2…8
	// staircase of Fig 9 on K20.
	{M: 128, N: 128, BlockSize: 256, BaseRegs: 127, SharedMem: 4352},
	{M: 128, N: 64, BlockSize: 128, BaseRegs: 120, SharedMem: 12544},
	{M: 128, N: 32, BlockSize: 128, BaseRegs: 90, SharedMem: 10496},
	{M: 64, N: 64, BlockSize: 256, BaseRegs: 79, SharedMem: 8468},
	{M: 32, N: 32, BlockSize: 64, BaseRegs: 48, SharedMem: 2304},
}

// TileByName returns the tile whose String() matches name, or an error.
func TileByName(name string) (TileConfig, error) {
	for _, t := range standardTiles {
		if t.String() == name {
			return t, nil
		}
	}
	return TileConfig{}, fmt.Errorf("kernels: unknown tile %q", name)
}

// GridSize returns Eq 4: ⌈M/m⌉·⌈N/n⌉ CTAs for an M×N result matrix.
func GridSize(m, n int, tile TileConfig) int {
	return ceilDiv(m, tile.M) * ceilDiv(n, tile.N)
}

// REC returns Eq 9: the ratio of effective computation to overall
// computation given tile-boundary waste.
func REC(m, n int, tile TileConfig) float64 {
	total := float64(ceilDiv(m, tile.M)*tile.M) * float64(ceilDiv(n, tile.N)*tile.N)
	return float64(m) * float64(n) / total
}

// Build produces the gpu.Kernel for multiplying an (M×K)·(K×N) GEMM with
// this tile at the given per-thread register count (BaseRegs when regs ≤ 0
// or ≥ BaseRegs; fewer registers imply spilling, whose instruction and
// traffic overheads are added by the spill model).
func Build(name string, tile TileConfig, m, n, k, regs int, dev *gpu.Device) gpu.Kernel {
	kern := tileKernel(name, tile, m, n, k)
	if regs > 0 && regs < tile.BaseRegs {
		kern = withSpill(kern, regs, PlanSpill(tile, regs, k, dev))
	}
	return kern
}

// tileKernel is Build at the tile's own register count, where nothing
// spills: the part of every design point of a tile that the register
// count does not move.
func tileKernel(name string, tile TileConfig, m, n, k int) gpu.Kernel {
	tm, tn := tile.regTileEdges()
	fK := float64(k)
	block := float64(tile.BlockSize)

	fma := float64(tile.OutputsPerThread()) * fK
	sharedAccesses := float64(tm+tn) * fK
	globalLoadInsts := fK * float64(tile.M+tile.N) / block
	loopOverhead := fK/kStep*4 + 30
	storeInsts := float64(tile.OutputsPerThread())

	kern := gpu.Kernel{
		Name:              name,
		GridSize:          GridSize(m, n, tile),
		BlockSize:         tile.BlockSize,
		RegsPerThread:     tile.BaseRegs,
		SharedMemPerBlock: tile.SharedMem,
		FMAInsts:          fma,
		OtherInsts:        sharedAccesses + globalLoadInsts + loopOverhead + storeInsts,
		GlobalBytes:       4 * (fK*float64(tile.M+tile.N)/block + float64(tile.OutputsPerThread())),
	}
	return kern
}

// withSpill runs kern at regs registers per thread, below its tile's own,
// adding the spill plan's instructions and traffic.
func withSpill(kern gpu.Kernel, regs int, sp SpillPlan) gpu.Kernel {
	kern.RegsPerThread = regs
	kern.OtherInsts += sp.ExtraInsts()
	kern.GlobalBytes += sp.ExtraGlobalBytes()
	return kern
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
