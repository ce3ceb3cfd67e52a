package kernels

import (
	"fmt"
	"math"

	"pcnn/internal/gpu"
)

// Coordinated fine-tuning of sub-matrix size and registers per thread
// (Section IV.B.2). For each tile, the TLP-vs-registers staircase (Fig 9)
// is pruned to its rightmost points — the largest register count
// achieving each TLP level — and the analytical metric S_kernel (Eq 10)
// ranks the surviving (tile, regs) design points.

// StairPoint is one pruned design point: the most registers per thread
// that still achieve the given TLP (the red points of Fig 9).
type StairPoint struct {
	Regs int
	TLP  int
}

// MinRegs returns the paper's minReg: register file size over the SM's
// maximum resident threads — below this, registers stop being the
// occupancy limiter.
func MinRegs(dev *gpu.Device) int {
	return dev.RegistersPerSM / dev.MaxThreadsPerSM
}

// Staircase returns the TLP achieved at every register count from MinRegs
// to the tile's BaseRegs (for plotting Fig 9, and the oracle Candidates is
// tested against).
func Staircase(tile TileConfig, dev *gpu.Device) []StairPoint {
	lo := MinRegs(dev)
	var out []StairPoint
	for r := lo; r <= tile.BaseRegs; r++ {
		k := gpu.Kernel{BlockSize: tile.BlockSize, RegsPerThread: r, SharedMemPerBlock: tile.SharedMem}
		out = append(out, StairPoint{Regs: r, TLP: dev.OccupancyFor(k).CTAs})
	}
	return out
}

// Candidates returns the staircase's rightmost points: for each
// achievable TLP, the largest register count that attains it. Results are
// ordered by decreasing register count (increasing TLP). Only the register
// limit ⌊RegistersPerSM/(BlockSize·r)⌋ moves with r, so the walk jumps
// from one TLP level straight to the next instead of visiting every
// register count.
func Candidates(tile TileConfig, dev *gpu.Device) []StairPoint {
	return appendCandidates(nil, tile, dev)
}

// appendCandidates appends the tile's candidates to out, so Select can
// enumerate them on a stack buffer.
func appendCandidates(out []StairPoint, tile TileConfig, dev *gpu.Device) []StairPoint {
	// Shared memory, threads and CTA slots cap every step alike.
	ceiling := dev.OccupancyFor(gpu.Kernel{BlockSize: tile.BlockSize, SharedMemPerBlock: tile.SharedMem}).CTAs
	lo := MinRegs(dev)
	for r := tile.BaseRegs; r >= lo && ceiling >= 1; {
		tlp := ceiling
		if r > 0 {
			tlp = min(ceiling, dev.RegistersPerSM/(tile.BlockSize*r))
		}
		if tlp >= 1 {
			out = append(out, StairPoint{Regs: r, TLP: tlp})
		}
		if tlp == ceiling {
			break
		}
		// The most registers that still fit tlp+1 CTAs in the register file.
		r = dev.RegistersPerSM / (tile.BlockSize * (tlp + 1))
	}
	return out
}

// NInvocations returns Eq 8: how many dispatch rounds the device needs to
// drain the grid at the given TLP.
func NInvocations(gridSize, tlp, nSMs int) int {
	if tlp < 1 {
		tlp = 1
	}
	return ceilDiv(gridSize, tlp*nSMs)
}

// recFloor keeps S_kernel meaningful when a tile fits the result matrix
// exactly (rEC = 1) — Eq 10 would otherwise collapse to zero for every
// such design point. See EXPERIMENTS.md for this documented deviation.
const recFloor = 0.05

// SKernel returns the paper's analytical ranking metric (Eq 10),
//
//	S_kernel = (1 − rEC) × Spill_cost × nInvocations,
//
// for the design point whose built kernel is kern and whose occupancy is
// tlp, regularized and roofline-extended so every design point ranks
// meaningfully: the waste factor is floored at recFloor, and the cost
// term is the per-thread work — the larger of issued instructions
// (including Eq 7's spill cost) and the thread's DRAM traffic expressed
// in issue-slot equivalents. The memory term is what stops the tuner from
// trading registers for TLP on bandwidth-starved parts like the TX1,
// where every spilled-to-global access is worth tens of instructions.
func SKernel(tile TileConfig, m, n int, kern gpu.Kernel, tlp int, dev *gpu.Device) float64 {
	inv := NInvocations(GridSize(m, n, tile), tlp, dev.NumSMs)
	wasteFactor := math.Max(1-REC(m, n, tile), recFloor)
	// Issue-slot equivalents of one thread's DRAM traffic: the chip
	// issues TotalCores instructions in the time one byte-per-cycle of
	// bandwidth moves one byte.
	memEq := kern.GlobalBytes * float64(dev.TotalCores()) / dev.BytesPerCycle()
	costFactor := math.Max(kern.TotalInstsPerThread(), memEq)
	return wasteFactor * costFactor * float64(inv)
}

// Choice is the result of kernel selection for one GEMM.
type Choice struct {
	Tile   TileConfig
	Regs   int
	TLP    int // optTLP: resident CTAs per SM at the chosen design point
	Grid   int
	Score  float64 // S_kernel of the winning point
	Kernel gpu.Kernel
}

// String summarizes the choice.
func (c Choice) String() string {
	return fmt.Sprintf("%s r%d TLP%d grid%d", c.Tile, c.Regs, c.TLP, c.Grid)
}

// Select performs the paper's coordinated fine-tuning: enumerate standard
// tiles × pruned register candidates, rank by S_kernel, return the best
// launchable design point. name labels the produced kernel.
func Select(name string, m, n, k int, dev *gpu.Device) (Choice, error) {
	if n < GEMVThreshold {
		kern := BuildGEMV(name, m, n, k, dev)
		tlp := dev.OccupancyFor(kern).CTAs
		if tlp < 1 {
			return Choice{}, fmt.Errorf("kernels: vector kernel unlaunchable for %dx%dx%d on %s", m, n, k, dev.Name)
		}
		return Choice{
			Tile:   TileConfig{M: gemvBlock, N: n, BlockSize: gemvBlock, BaseRegs: kern.RegsPerThread, SharedMem: kern.SharedMemPerBlock},
			Regs:   kern.RegsPerThread,
			TLP:    tlp,
			Grid:   kern.GridSize,
			Kernel: kern,
		}, nil
	}
	var best Choice
	found := false
	var buf [16]StairPoint
	for _, tile := range StandardTiles() {
		for _, cand := range appendCandidates(buf[:0], tile, dev) {
			kern := Build(name, tile, m, n, k, cand.Regs, dev)
			score := SKernel(tile, m, n, kern, cand.TLP, dev)
			if !found || score < best.Score {
				best = Choice{
					Tile:   tile,
					Regs:   cand.Regs,
					TLP:    cand.TLP,
					Grid:   kern.GridSize,
					Score:  score,
					Kernel: kern,
				}
				found = true
			}
		}
	}
	if !found {
		return Choice{}, fmt.Errorf("kernels: no launchable design point for %dx%dx%d on %s", m, n, k, dev.Name)
	}
	return best, nil
}
