package compile

import (
	"fmt"

	"pcnn/internal/gpu"
	"pcnn/internal/satisfaction"
)

// Extensions the paper motivates but leaves on the table: frequency
// scaling inside the imperceptible region (Fig 3's energy argument) and
// donating the resource model's freed SMs to a co-runner instead of power
// gating them (Section III.D.2).

// dvfsMargin keeps a safety gap between the scaled prediction and the
// budget so model error does not push the response past T_i.
const dvfsMargin = 0.95

// Device returns the device the plan executes on: the DVFS-scaled clone
// after ApplyDVFS, otherwise the compilation target.
func (p *Plan) Device() *gpu.Device {
	if p.EffDev != nil {
		return p.EffDev
	}
	return p.Dev
}

// ApplyDVFS implements Fig 3's imperceptible-region rule: there is no
// satisfaction to gain by finishing before T_i, so pick the lowest
// frequency level whose re-predicted time still fits the budget and bank
// the (≈cubic) dynamic-power saving. Levels are core-clock fractions,
// highest first. Background tasks and plans already over budget are left
// at full clock. The chosen fraction is returned and recorded in
// p.FreqFrac; per-layer plans and PredictedMS are recomputed for the
// scaled device.
func (p *Plan) ApplyDVFS(levels []float64) (float64, error) {
	p.FreqFrac = 1
	p.EffDev = nil
	if p.Task.Class == satisfaction.Background {
		return 1, nil
	}
	budget := p.Task.TimeBudget() * dvfsMargin
	if p.PredictedMS > budget {
		return 1, nil
	}
	bestFrac := 1.0
	var bestDev *gpu.Device
	for _, f := range levels {
		if f <= 0 || f > 1 || f >= bestFrac && bestDev != nil {
			continue
		}
		scaled, err := p.Dev.AtFrequency(f)
		if err != nil {
			return 0, err
		}
		trial := &Plan{Net: p.Net, Dev: scaled, Task: p.Task, Batch: p.Batch}
		if err := trial.planLayers(); err != nil {
			return 0, err
		}
		if trial.PredictedMS <= budget && f < bestFrac {
			bestFrac = f
			bestDev = scaled
			p.Layers = trial.Layers
			p.PredictedMS = trial.PredictedMS
		}
	}
	if bestDev != nil {
		p.FreqFrac = bestFrac
		p.EffDev = bestDev
	}
	return p.FreqFrac, nil
}

// SharedResult reports a SimulateShared run.
type SharedResult struct {
	Aggregate gpu.Aggregate
	// BgCTAs is how many background thread blocks completed inside the
	// foreground plan's execution windows.
	BgCTAs int
	// FgSlowdownMax is the worst per-layer foreground slowdown relative
	// to running the layer alone (1.0 = untouched).
	FgSlowdownMax float64
}

// CoRunLaunches returns what SimulateShared simulates for each foreground
// layer, in layer order: the layer's launch alone when it frees no SMs or
// is bandwidth-bound, otherwise the pair {layer on [0, OptSM), one wave of
// the next background kernel resized to the freed window [OptSM, NumSMs)}.
// The background stream is sampled round-robin from bg's layer kernels.
func (p *Plan) CoRunLaunches(bg *Plan) [][]gpu.Launch {
	dev := p.Device()
	out := make([][]gpu.Launch, 0, len(p.Layers))
	bgIdx := 0
	for _, l := range p.Layers {
		fgLaunch := gpu.Launch{
			Kernel: l.Choice.Kernel,
			Config: gpu.LaunchConfig{
				Policy:        gpu.PrioritySM,
				SMLimit:       l.OptSM,
				TLPLimit:      l.OptTLP,
				PowerGateIdle: true,
			},
		}
		freed := dev.NumSMs - l.OptSM
		// Donate only under compute-bound layers: a co-runner under a
		// bandwidth-bound layer (the batch-1 FC GEMVs) steals the DRAM the
		// foreground is waiting on and wrecks its latency.
		memEq := l.Choice.Kernel.GlobalBytes * float64(dev.TotalCores()) / dev.BytesPerCycle()
		if freed <= 0 || memEq > l.Choice.Kernel.TotalInstsPerThread() {
			out = append(out, []gpu.Launch{fgLaunch})
			continue
		}
		bgKern := bg.Layers[bgIdx%len(bg.Layers)].Choice.Kernel
		bgIdx++
		// One wave of the background kernel on the freed window.
		occ := dev.OccupancyFor(bgKern).CTAs
		if occ < 1 {
			occ = 1
		}
		wave := freed * occ
		if bgKern.GridSize > wave {
			bgKern.GridSize = wave
		}
		out = append(out, []gpu.Launch{fgLaunch, {
			Kernel: bgKern,
			Config: gpu.LaunchConfig{
				Policy:        gpu.RoundRobin,
				SMOffset:      l.OptSM,
				SMLimit:       freed,
				PowerGateIdle: true,
			},
		}})
	}
	return out
}

// SimulateShared runs the plan's layers while a co-runner's kernels cycle
// on each layer's freed SMs (maxSM − optSM) — the spatial-multitasking
// alternative to power gating. For every foreground layer, one wave of
// the next background kernel co-runs on the freed window; layers that
// free no SMs run alone (CoRunLaunches builds both cases).
func (p *Plan) SimulateShared(bg *Plan) (SharedResult, error) {
	if bg == nil || len(bg.Layers) == 0 {
		return SharedResult{}, fmt.Errorf("compile: SimulateShared needs a co-runner plan")
	}
	dev := p.Device()
	res := SharedResult{FgSlowdownMax: 1}
	for _, ls := range p.CoRunLaunches(bg) {
		alone, err := dev.Simulate(ls[0].Kernel, ls[0].Config)
		if err != nil {
			return SharedResult{}, err
		}
		if len(ls) == 1 {
			res.Aggregate.TimeMS += alone.TimeMS
			res.Aggregate.EnergyJ += alone.EnergyJ
			continue
		}
		co, err := dev.SimulateConcurrent(ls)
		if err != nil {
			return SharedResult{}, err
		}
		res.Aggregate.TimeMS += co.TotalMS
		res.Aggregate.EnergyJ += co.EnergyJ
		res.BgCTAs += ls[1].Kernel.GridSize
		if alone.TimeMS > 0 {
			if s := co.PerKernel[0].TimeMS / alone.TimeMS; s > res.FgSlowdownMax {
				res.FgSlowdownMax = s
			}
		}
	}
	if res.Aggregate.TimeMS > 0 {
		res.Aggregate.AvgPowerW = res.Aggregate.EnergyJ / (res.Aggregate.TimeMS * 1e-3)
	}
	return res, nil
}
