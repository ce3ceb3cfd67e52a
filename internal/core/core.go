// Package core is the P-CNN framework itself (Fig 10): it wires user-input
// requirement inference, cross-platform offline compilation, the
// entropy-based accuracy tuner running on a trained (scaled) executable
// network, and run-time kernel management into one deployable object, and
// exposes the scheduler evaluation used in Section V.
//
// The split personality of the reproduction meets here: the *executable*
// scaled network supplies real entropy/accuracy signals, and its tuning
// table transfers — layer by layer, as keep fractions — onto the
// *full-size* network shape whose kernels the GPU simulator times.
package core

import (
	"fmt"
	"math"

	"pcnn/internal/compile"
	"pcnn/internal/entropy"
	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/runtimemgr"
	"pcnn/internal/satisfaction"
	"pcnn/internal/sched"
	"pcnn/internal/tensor"
)

// Framework is P-CNN deployed for one (network, device, task) triple.
type Framework struct {
	Net  *nn.NetShape
	Dev  *gpu.Device
	Task satisfaction.Task

	// Plan is the offline compilation result (nil until CompileOffline).
	Plan *compile.Plan

	// Scaled is the trained executable analogue attached for accuracy
	// tuning; Table its tuning table, which Serve calibrates along.
	Scaled *nn.Sequential
	Table  *runtimemgr.Table
}

// New resolves the named network shape and validates the task.
func New(netName string, dev *gpu.Device, task satisfaction.Task) (*Framework, error) {
	net := nn.NetShapeByName(netName)
	if net == nil {
		return nil, fmt.Errorf("core: unknown network %q", netName)
	}
	if err := task.Validate(); err != nil {
		return nil, err
	}
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	return &Framework{Net: net, Dev: dev, Task: task}, nil
}

// CompileOffline runs cross-platform offline compilation (Section IV.B).
func (f *Framework) CompileOffline() error {
	p, err := compile.Compile(f.Net, f.Dev, f.Task)
	if err != nil {
		return err
	}
	f.Plan = p
	return nil
}

// AttachScaled wires a trained executable network plus probe inputs into
// the framework and runs the entropy-based accuracy tuner (Section IV.C.1),
// producing the tuning table Serve runs and calibrates along.
func (f *Framework) AttachScaled(scaled *nn.Sequential, probe *tensor.Tensor) error {
	// The tuner explores past the task's threshold so the table holds the
	// aggressive points the Ideal scheduler profiles and the points P-CNN
	// escalates to when a hard deadline outranks accuracy (the TX1
	// real-time case of Section V.C). Serving still starts at the task
	// threshold's level (serve.BaseLevel) and calibrates against it.
	exploreCap := math.Max(f.Task.EntropyThreshold, 0.6*entropy.Max(scaled.Classes))
	tuner := &runtimemgr.Tuner{
		Net:       scaled,
		Probe:     probe,
		Threshold: exploreCap,
	}
	table, err := tuner.Run()
	if err != nil {
		return err
	}
	f.Scaled = scaled
	f.Table = table
	return nil
}

// TuningPath converts the scaled network's tuning table into full-size
// keep-fraction points for the schedulers. Scaled conv layers map onto
// full-size conv layers proportionally by position; full-size layers with
// no scaled counterpart stay unperforated.
func (f *Framework) TuningPath() []compile.TuningPoint {
	if f.Table == nil {
		return nil
	}
	scaledLayers := f.Scaled.PerforableLayers()
	dims := make([]nn.Keep, len(scaledLayers))
	for i, l := range scaledLayers {
		ho, wo := l.OutDims()
		dims[i] = nn.Keep{W: wo, H: ho}
	}
	fullConvs := f.Net.ConvLayers()
	points := make([]compile.TuningPoint, 0, len(f.Table.Entries))
	for lvl, e := range f.Table.Entries {
		fr := f.Table.KeepFractions(lvl, dims)
		keeps := map[string]float64{}
		for i, name := range f.Table.LayerNames {
			frac, ok := fr[name]
			if !ok || frac >= 1 {
				continue
			}
			full := mapScaledToFull(i, len(f.Table.LayerNames), len(fullConvs))
			keeps[fullConvs[full].Name] = frac
		}
		points = append(points, compile.TuningPoint{Keeps: keeps, Entropy: e.Entropy})
	}
	return points
}

// mapScaledToFull maps scaled conv index i of nScaled onto a full-size
// conv index, spreading proportionally.
func mapScaledToFull(i, nScaled, nFull int) int {
	if nScaled <= 1 || nFull <= 1 {
		return 0
	}
	idx := int(math.Round(float64(i) * float64(nFull-1) / float64(nScaled-1)))
	if idx >= nFull {
		idx = nFull - 1
	}
	return idx
}

// Scenario assembles the scheduler-evaluation scenario for this framework.
func (f *Framework) Scenario() sched.Scenario {
	sc := sched.Scenario{
		Net:  f.Net,
		Dev:  f.Dev,
		Task: f.Task,
	}
	if f.Table != nil {
		sc.TuningPath = f.TuningPath()
		sc.BaseEntropy = f.Table.Entries[0].Entropy
	}
	return sc
}

// Evaluate runs the full scheduler suite (Figs 13–15) on this framework's
// scenario.
func (f *Framework) Evaluate() ([]sched.Outcome, error) {
	out, err := sched.Evaluate(f.Scenario())
	if err != nil {
		return nil, fmt.Errorf("core: %s/%s: %w", f.Dev.Name, f.Task.Name, err)
	}
	return out, nil
}

// Outcome is the P-CNN scheduler's row of Evaluate.
func (f *Framework) Outcome() (sched.Outcome, error) {
	out, err := f.Evaluate()
	if err != nil {
		return sched.Outcome{}, err
	}
	for _, o := range out {
		if o.Scheduler == "P-CNN" {
			return o, nil
		}
	}
	return sched.Outcome{}, fmt.Errorf("core: no P-CNN row in the scheduler suite")
}
