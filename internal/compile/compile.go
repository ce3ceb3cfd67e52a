// Package compile implements P-CNN's cross-platform offline compilation
// (Section IV.B, the left half of Fig 10): batch-size selection by task
// class, per-layer coordinated kernel fine-tuning, and the global decision
// loop that uses the resource model (optSM, Eq 11) and the time model
// (Eq 12) to keep the predicted response time inside the user's budget
// (Eq 13). The output is a Plan: the scheduling configuration — one tuned
// kernel plus (optSM, optTLP) per layer — that run-time management
// consumes.
package compile

import (
	"fmt"
	"math"

	"pcnn/internal/analytic"
	"pcnn/internal/gpu"
	"pcnn/internal/kernels"
	"pcnn/internal/nn"
	"pcnn/internal/satisfaction"
)

// LayerPlan is one layer's scheduling configuration.
type LayerPlan struct {
	Name        string
	GEMM        analytic.LayerGEMM
	Choice      kernels.Choice
	OptSM       int
	OptTLP      int
	Util        float64
	PredictedMS float64
}

// Plan is the offline compilation result for (network, device, task).
type Plan struct {
	Net   *nn.NetShape
	Dev   *gpu.Device
	Task  satisfaction.Task
	Batch int
	// Saturated reports whether a background task's batch reached full
	// utilization before hitting the memory or search limit.
	Saturated bool
	// BudgetMet reports whether the predicted time fits the task's budget
	// (always true for background tasks).
	BudgetMet bool
	Layers    []LayerPlan
	// PredictedMS is the time model's end-to-end estimate for one batch.
	PredictedMS float64
	// FreqFrac is the DVFS level ApplyDVFS chose (1 = nominal clock);
	// EffDev the frequency-scaled device the plan then executes on.
	FreqFrac float64
	EffDev   *gpu.Device
}

// TuningPoint is one transferred entry of the accuracy-tuning table: the
// per-conv-layer keep fractions and the uncertainty measured at that
// level. Point 0 of a path is the unperforated network.
type TuningPoint struct {
	Keeps   map[string]float64 // conv layer name → computed-area fraction
	Entropy float64            // mean output entropy at this level (nats)
}

// maxCompileIterations bounds the Eq 13 batch-shrinking loop.
const maxCompileIterations = 8

// Compile runs the full offline pipeline.
func Compile(net *nn.NetShape, dev *gpu.Device, task satisfaction.Task) (*Plan, error) {
	if err := task.Validate(); err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}

	p := &Plan{Net: net, Dev: dev, Task: task, BudgetMet: true}

	// 1. Batch-size selection (Section IV.B.1).
	switch task.Class {
	case satisfaction.Background:
		b, sat, err := analytic.OptimalBackgroundBatch(net, dev)
		if err != nil {
			return nil, err
		}
		p.Batch, p.Saturated = b, sat
	default:
		// Initial batch = data generated during the time budget.
		budget := task.TimeBudget()
		b := 1
		if !math.IsInf(budget, 1) {
			b = int(task.DataRateHz * budget / 1000)
		}
		p.Batch = max(1, min(b, analytic.MaxFitBatch(net, dev)))
	}

	// 2–3. Kernel optimization + resource model, then 4. global decision:
	// shrink the batch (Eq 13) until the time model fits the budget.
	budget := task.TimeBudget()
	for iter := 0; ; iter++ {
		if err := p.planLayers(); err != nil {
			return nil, err
		}
		if task.Class == satisfaction.Background || p.PredictedMS <= budget || p.Batch == 1 {
			break
		}
		if iter >= maxCompileIterations {
			break
		}
		nb := analytic.AdjustBatch(p.Batch, p.PredictedMS, budget)
		if nb == p.Batch {
			nb = p.Batch - 1
		}
		p.Batch = nb
	}
	p.BudgetMet = p.PredictedMS <= budget || task.Class == satisfaction.Background
	return p, nil
}

// CompileAtBatch builds a plan pinned to an explicit batch size, skipping
// batch selection and the Eq 13 loop. The batch is shrunk only if it does
// not fit device memory. Baseline schedulers that dictate their own batch
// (Performance-preferred, Energy-efficient) use this entry point.
func CompileAtBatch(net *nn.NetShape, dev *gpu.Device, task satisfaction.Task, batch int) (*Plan, error) {
	if err := task.Validate(); err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	batch = max(1, min(batch, analytic.MaxFitBatch(net, dev)))
	p := &Plan{Net: net, Dev: dev, Task: task, Batch: batch}
	if err := p.planLayers(); err != nil {
		return nil, err
	}
	p.BudgetMet = p.PredictedMS <= task.TimeBudget()
	return p, nil
}

// planLayers performs per-layer kernel selection, the resource model and
// the time model at the plan's current batch size.
func (p *Plan) planLayers() error {
	gemms := analytic.NetworkGEMMs(p.Net, p.Batch)
	p.Layers = p.Layers[:0]
	p.PredictedMS = 0
	for _, g := range gemms {
		c, err := kernels.Select(g.Name, g.M, g.N, g.K, p.Dev)
		if err != nil {
			return fmt.Errorf("compile: %s/%s: %w", p.Net.Name, g.Name, err)
		}
		// Fold filter groups into the launch grid.
		c.Grid *= g.Groups
		c.Kernel.GridSize = c.Grid
		optSM := analytic.OptSM(c.Grid, c.TLP, p.Dev.NumSMs)
		lp := LayerPlan{
			Name:        g.Name,
			GEMM:        g,
			Choice:      c,
			OptSM:       optSM,
			OptTLP:      c.TLP,
			Util:        analytic.Util(c.Grid, p.Dev.MaxBlocks(c.Kernel)),
			PredictedMS: analytic.PredictTimeMS(c, optSM, p.Dev),
		}
		p.Layers = append(p.Layers, lp)
		p.PredictedMS += lp.PredictedMS
	}
	return nil
}

// Launches lowers the plan to simulator launches. When partitioned is
// true, each layer runs Priority-SM on its optSM SMs at optTLP with the
// remaining SMs power gated (P-CNN's run-time kernel management);
// otherwise layers run the baseline Round-Robin over all SMs.
func (p *Plan) Launches(partitioned bool) []gpu.Launch {
	out := make([]gpu.Launch, 0, len(p.Layers))
	for _, l := range p.Layers {
		cfg := gpu.DefaultLaunch()
		if partitioned {
			cfg = gpu.LaunchConfig{
				Policy:        gpu.PrioritySM,
				SMLimit:       l.OptSM,
				TLPLimit:      l.OptTLP,
				PowerGateIdle: true,
			}
		}
		out = append(out, gpu.Launch{Kernel: l.Choice.Kernel, Config: cfg})
	}
	return out
}

// PerforatedLaunches lowers the plan with per-conv-layer perforation keep
// fractions applied to the GEMM N dimension (the run-time accuracy tuner's
// effect on the full-size network). keep maps conv-layer name → fraction
// of output positions computed (1 = full); missing layers run full. The
// layer keeps its tuned kernel — perforation shrinks the data matrix the
// same sub-matrix multiplies (Section IV.C.1 sizes Wo′Ho′ in multiples of
// the tile's n) — while optSM/optTLP are re-derived for the smaller grid.
func (p *Plan) PerforatedLaunches(keep map[string]float64, partitioned bool) ([]gpu.Launch, error) {
	out := make([]gpu.Launch, 0, len(p.Layers))
	for _, l := range p.Layers {
		frac, ok := keep[l.Name]
		if !ok || frac >= 1 || !l.GEMM.IsConv {
			frac = 1
		}
		if frac <= 0 {
			return nil, fmt.Errorf("compile: layer %s: keep fraction %v out of (0,1]", l.Name, frac)
		}
		kern := l.Choice.Kernel
		grid := l.Choice.Grid
		if frac < 1 {
			g := l.GEMM
			n := int(math.Ceil(float64(g.N) * frac))
			if n < 1 {
				n = 1
			}
			kern = kernels.Build(g.Name, l.Choice.Tile, g.M, n, g.K, l.Choice.Regs, p.Device())
			kern.GridSize *= g.Groups
			grid = kern.GridSize
		}
		optSM := analytic.OptSM(grid, l.Choice.TLP, p.Device().NumSMs)
		cfg := gpu.DefaultLaunch()
		if partitioned {
			cfg = gpu.LaunchConfig{
				Policy:        gpu.PrioritySM,
				SMLimit:       optSM,
				TLPLimit:      l.Choice.TLP,
				PowerGateIdle: true,
			}
		}
		out = append(out, gpu.Launch{Kernel: kern, Config: cfg})
	}
	return out, nil
}

// Simulate runs the plan on the device simulator and returns per-layer
// results and the aggregate.
func (p *Plan) Simulate(partitioned bool) ([]gpu.Result, gpu.Aggregate, error) {
	return p.Device().Run(p.Launches(partitioned))
}

// FreedSMs returns, per layer, how many SMs the resource model released
// (maxSM − optSM), the quantity P-CNN power-gates or donates to co-runners.
func (p *Plan) FreedSMs() []int {
	out := make([]int, len(p.Layers))
	for i, l := range p.Layers {
		out[i] = p.Dev.NumSMs - l.OptSM
	}
	return out
}
