// Package analytic implements the paper's platform-independent analytical
// models: computation efficiency cpE (Eq 3), resource utilization Util
// (Eq 6), the resource model choosing optSM (Eq 11), the time model
// (Eq 12) guiding offline compilation, the batch-size adjustment rule
// (Eq 13), and the lowering of a network shape table to simulator kernel
// launches under a library policy.
package analytic

import (
	"fmt"
	"math"

	"pcnn/internal/gpu"
	"pcnn/internal/kernels"
	"pcnn/internal/nn"
)

// CpE returns Eq 3: the ratio of achieved throughput (effective FLOPs over
// measured time) to the device's peak throughput.
func CpE(effectiveFLOPs, timeMS float64, dev *gpu.Device) float64 {
	if timeMS <= 0 {
		return 0
	}
	achieved := effectiveFLOPs / (timeMS * 1e-3) // FLOP/s
	return achieved / (dev.PeakGFLOPs() * 1e9)
}

// Util returns Eq 6: GridSize / (nCycle × maxBlocks), where nCycle =
// ⌈GridSize/maxBlocks⌉ — the fraction of resident-CTA capacity the last
// dispatch wave actually fills.
func Util(gridSize, maxBlocks int) float64 {
	if gridSize <= 0 || maxBlocks <= 0 {
		return 0
	}
	nCycle := (gridSize + maxBlocks - 1) / maxBlocks
	return float64(gridSize) / (float64(nCycle) * float64(maxBlocks))
}

// OptSM returns Eq 11: the minimum number of SMs that leaves the number of
// dispatch rounds unchanged relative to using every SM, so the freed SMs
// can be power gated or given to other work.
func OptSM(gridSize, optTLP, numSMs int) int {
	if gridSize <= 0 {
		return 1
	}
	if optTLP < 1 {
		optTLP = 1
	}
	full := kernels.NInvocations(gridSize, optTLP, numSMs)
	for s := 1; s < numSMs; s++ {
		if kernels.NInvocations(gridSize, optTLP, s) == full {
			return s
		}
	}
	return numSMs
}

// issueEfficiency bounds how much of an SM's issue bandwidth `tlp`
// resident CTAs of the given block size can consume (the low-occupancy
// penalty of Fig 9's trade-off).
func issueEfficiency(tlp, blockSize int, dev *gpu.Device) float64 {
	demand := float64(tlp) * float64(blockSize) * dev.PerThreadIPC
	cap := float64(dev.CoresPerSM)
	if demand >= cap {
		return 1
	}
	return demand / cap
}

// PredictTimeMS is the paper's time model (Eq 12) at wave granularity,
// extended with a roofline memory bound. The compute term: the layer needs
// nInvocations dispatch rounds (Eq 8); each round executes optSM×TLP full
// tiles at the SMs' peak rate discounted by the kernel's computation
// density (FMA/total instructions) and by issue efficiency at the chosen
// TLP. Tile-boundary waste (rEC) enters through the grid being sized in
// tiles. The memory term — the kernel's total DRAM traffic over device
// bandwidth — dominates on bandwidth-starved parts like the TX1, which Eq
// 12 alone cannot capture (documented deviation; see EXPERIMENTS.md).
func PredictTimeMS(c kernels.Choice, optSM int, dev *gpu.Device) float64 {
	if optSM < 1 {
		optSM = 1
	}
	inv := kernels.NInvocations(c.Grid, c.TLP, optSM)
	// FMAInsts = outputsPerThread·K, so this is 2·m·n·K per tile.
	tileFLOPs := 2 * float64(c.Tile.M) * float64(c.Tile.N) * (c.Kernel.FMAInsts / float64(c.Tile.OutputsPerThread()))
	flopsPerWave := float64(optSM) * float64(c.TLP) * tileFLOPs
	rate := dev.PeakSMGFLOPs() * 1e9 * float64(optSM) // FLOP/s
	rate *= c.Kernel.FMAFraction()
	rate *= issueEfficiency(c.TLP, c.Tile.BlockSize, dev)
	if rate <= 0 {
		return math.Inf(1)
	}
	computeMS := float64(inv) * flopsPerWave / rate * 1e3
	totalBytes := c.Kernel.GlobalBytes * float64(c.Kernel.BlockSize) * float64(c.Grid)
	memMS := totalBytes / (dev.MemBandwidthGBps * 1e9) * 1e3
	return math.Max(computeMS, memMS)
}

// AdjustBatch returns Eq 13: the batch size scaled by the ratio of the
// user's time budget to the predicted time, floored at 1.
func AdjustBatch(batch int, predictedMS, userMS float64) int {
	if predictedMS <= 0 {
		return batch
	}
	nb := int(float64(batch) * userMS / predictedMS)
	if nb < 1 {
		nb = 1
	}
	if nb > batch {
		// Eq 13 only shrinks the batch (invoked when T > T_user).
		nb = batch
	}
	return nb
}

// FitsMemory reports whether inference at the given batch size fits the
// device memory one process can use — the "x" marks of Table III.
func FitsMemory(net *nn.NetShape, batch int, dev *gpu.Device) bool {
	return net.MemoryFootprintBytes(batch) <= dev.UsableMemBytes()
}

// MaxFitBatch returns the largest batch that FitsMemory, 0 when not even
// one image fits. The footprint W + 2b·A + I is linear in the batch b, so
// the ceiling is one division.
func MaxFitBatch(net *nn.NetShape, dev *gpu.Device) int {
	free := dev.UsableMemBytes() - net.WeightBytes() - net.Im2ColWorkspaceBytesPerImage()
	perImage := 2 * net.MaxLayerActivationBytesPerImage()
	switch {
	case free < 0:
		return 0
	case perImage == 0:
		return math.MaxInt
	}
	return int(free / perImage)
}

// LayerGEMM is one layer's GEMM work at a chosen batch size.
type LayerGEMM struct {
	Name    string
	M, N, K int
	// Groups is how many independent GEMMs the layer runs per batch
	// (AlexNet's grouped convolutions); they are folded into the launch's
	// grid size.
	Groups int
	// EffectiveFLOPs is Eq 1 × batch — the useful work, excluding
	// tile-boundary waste.
	EffectiveFLOPs float64
	IsConv         bool
}

// NetworkGEMMs lowers a shape table's conv and FC layers to GEMM
// descriptions at the given batch size.
func NetworkGEMMs(net *nn.NetShape, batch int) []LayerGEMM {
	if batch < 1 {
		batch = 1
	}
	var out []LayerGEMM
	for _, l := range net.Layers {
		switch l.Kind {
		case nn.ConvLayer:
			m, n, k := l.Conv.GEMMDims(batch)
			out = append(out, LayerGEMM{
				Name: l.Conv.Name, M: m, N: n, K: k,
				Groups:         l.Conv.GEMMCount(),
				EffectiveFLOPs: l.Conv.FLOPsPerImage() * float64(batch),
				IsConv:         true,
			})
		case nn.FCLayer:
			m, n, k := l.FC.GEMMDims(batch)
			out = append(out, LayerGEMM{
				Name: l.FC.Name, M: m, N: n, K: k,
				Groups:         1,
				EffectiveFLOPs: l.FC.FLOPsPerImage() * float64(batch),
			})
		}
	}
	return out
}

// LibraryLaunches lowers a network to simulator launches under a library's
// kernel-selection policy at the given batch size (already rounded to the
// library's granularity by the caller if desired).
func LibraryLaunches(net *nn.NetShape, batch int, lib kernels.Library, dev *gpu.Device) []gpu.Launch {
	var launches []gpu.Launch
	for _, g := range NetworkGEMMs(net, batch) {
		k := lib.Kernel(g.Name, g.M, g.N, g.K, dev)
		k.GridSize *= g.Groups
		launches = append(launches, gpu.Launch{Kernel: k, Config: gpu.DefaultLaunch()})
	}
	return launches
}

// NetworkRun simulates a network end to end under a library policy and
// returns per-layer results plus the aggregate.
func NetworkRun(net *nn.NetShape, batch int, lib kernels.Library, dev *gpu.Device) ([]gpu.Result, gpu.Aggregate, error) {
	if !FitsMemoryLib(net, batch, dev, lib) {
		return nil, gpu.Aggregate{}, fmt.Errorf("analytic: %s at batch %d exceeds %s memory (%w)",
			net.Name, batch, dev.Name, ErrOutOfMemory)
	}
	return dev.Run(LibraryLaunches(net, batch, lib, dev))
}

// ErrOutOfMemory marks Table III's "x" cells.
var ErrOutOfMemory = fmt.Errorf("out of device memory")
