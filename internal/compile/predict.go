package compile

import (
	"math"

	"pcnn/internal/analytic"
	"pcnn/internal/kernels"
)

// PredictMS is the Eq 12 time model evaluated at an arbitrary batch size
// and perforation point while holding the plan's tuned design fixed: each
// layer keeps its offline-chosen tile, register count and TLP, and only
// the launch grid is re-derived for the batch's GEMM shape (with conv
// layers' N scaled by their keep fraction, the PerforatedLaunches
// convention). optSM is re-derived per grid, exactly as planLayers does.
//
// Holding the design point fixed is what makes the model monotone: the
// grid never shrinks when the batch grows, dispatch rounds and DRAM
// traffic scale with the grid, and a longer layer prefix only adds
// positive terms. (End-to-end recompilation — CompileAtBatch — is *not*
// monotone in batch: re-tuning at a larger batch can pick a faster tile.)
// The fuzz suite asserts both monotonicities plus the anchor
// PredictMS(p, p.Batch, nil) == p.PredictedMS.
//
// keep maps conv-layer name → fraction of output positions computed
// (nil or missing entries mean the full layer). A shorter p.Layers slice
// than the network's layer list predicts that prefix.
func PredictMS(p *Plan, batch int, keep map[string]float64) float64 {
	if batch < 1 {
		batch = 1
	}
	gemms := analytic.NetworkGEMMs(p.Net, batch)
	var ms float64
	for i, l := range p.Layers {
		if i >= len(gemms) {
			break
		}
		g := gemms[i]
		n := g.N
		if g.IsConv {
			if frac, ok := keep[l.Name]; ok && frac > 0 && frac < 1 {
				n = int(math.Ceil(float64(g.N) * frac))
				if n < 1 {
					n = 1
				}
			}
		}
		c := l.Choice
		c.Grid = kernels.GridSize(g.M, n, c.Tile) * g.Groups
		c.Kernel.GridSize = c.Grid
		optSM := analytic.OptSM(c.Grid, c.TLP, p.Dev.NumSMs)
		ms += analytic.PredictTimeMS(c, optSM, p.Dev)
	}
	return ms
}
