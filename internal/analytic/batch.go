package analytic

import (
	"fmt"

	"pcnn/internal/gpu"
	"pcnn/internal/kernels"
	"pcnn/internal/nn"
)

// Batch-size selection (Section IV.B.1). Background tasks batch as far as
// the memory and the resource geometry justify: the optimal batch is the
// smallest one at which the minimum-Util (last) conv layer saturates the
// device's resident-CTA capacity — pushing the batch further cannot raise
// throughput (Fig 8's knee) but keeps growing the memory footprint.

// MaxSearchBatch bounds the background batch search.
const MaxSearchBatch = 1024

// utilSaturated is the Util level treated as "equal to 1" (grid sizes
// rarely hit an exact multiple of maxBlocks).
const utilSaturated = 0.98

// lastConvGEMM returns the final conv layer's GEMM at the given batch.
func lastConvGEMM(net *nn.NetShape, batch int) (LayerGEMM, error) {
	gemms := NetworkGEMMs(net, batch)
	for i := len(gemms) - 1; i >= 0; i-- {
		if gemms[i].IsConv {
			return gemms[i], nil
		}
	}
	return LayerGEMM{}, fmt.Errorf("analytic: %s has no conv layers", net.Name)
}

// LayerUtil computes Eq 6 for one layer under tuned kernel selection.
func LayerUtil(g LayerGEMM, dev *gpu.Device) (float64, error) {
	c, err := kernels.Select(g.Name, g.M, g.N, g.K, dev)
	if err != nil {
		return 0, err
	}
	return Util(c.Grid*g.Groups, dev.MaxBlocks(c.Kernel)), nil
}

// OptimalBackgroundBatch returns the smallest batch size that saturates
// the device, clamped to what fits in device memory. Saturation needs
// both criteria of Section IV.B.1 and Fig 8: the last (minimum-Util) conv
// layer must fill the resident-CTA capacity (Util ≈ 1), and the
// time-model throughput curve must have reached its plateau — the second
// matters on bandwidth-starved parts where fully-connected layers keep
// amortizing weight traffic long after the conv grids saturate. The
// boolean reports whether saturation was reached before the memory or
// search limit.
func OptimalBackgroundBatch(net *nn.NetShape, dev *gpu.Device) (int, bool, error) {
	kneeBatches := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, MaxSearchBatch}
	curve, err := ThroughputCurve(net, dev, kneeBatches)
	if err != nil {
		return 0, false, err
	}
	knee := KneeBatch(curve, 0.93)

	limit := min(MaxSearchBatch, MaxFitBatch(net, dev))
	for b := max(knee, 1); b <= limit; b++ {
		g, err := lastConvGEMM(net, b)
		if err != nil {
			return 0, false, err
		}
		u, err := LayerUtil(g, dev)
		if err != nil {
			return 0, false, err
		}
		if u >= utilSaturated {
			return b, true, nil
		}
	}
	return max(limit, 1), false, nil
}

// ThroughputPoint is one sample of the Fig 8 batch sweep.
type ThroughputPoint struct {
	Batch        int
	TotalMS      float64
	ImagesPerSec float64
}

// ThroughputCurve predicts throughput across batch sizes using tuned
// kernel selection and the time model with all SMs (Fig 8). Batches that
// do not fit device memory are omitted.
func ThroughputCurve(net *nn.NetShape, dev *gpu.Device, batches []int) ([]ThroughputPoint, error) {
	var out []ThroughputPoint
	for _, b := range batches {
		if b < 1 || !FitsMemory(net, b, dev) {
			continue
		}
		total := 0.0
		for _, g := range NetworkGEMMs(net, b) {
			c, err := kernels.Select(g.Name, g.M, g.N, g.K, dev)
			if err != nil {
				return nil, err
			}
			c.Grid *= g.Groups
			c.Kernel.GridSize = c.Grid
			total += PredictTimeMS(c, dev.NumSMs, dev)
		}
		out = append(out, ThroughputPoint{
			Batch:        b,
			TotalMS:      total,
			ImagesPerSec: float64(b) / (total * 1e-3),
		})
	}
	return out, nil
}

// KneeBatch returns the batch at which a throughput curve first reaches
// the given fraction of its maximum — Fig 8's red "optimal batch" marks.
func KneeBatch(curve []ThroughputPoint, frac float64) int {
	if len(curve) == 0 {
		return 0
	}
	var max float64
	for _, p := range curve {
		if p.ImagesPerSec > max {
			max = p.ImagesPerSec
		}
	}
	for _, p := range curve {
		if p.ImagesPerSec >= frac*max {
			return p.Batch
		}
	}
	return curve[len(curve)-1].Batch
}
