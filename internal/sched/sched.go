// Package sched implements the scheduler suite of Section V.B: the
// Performance-preferred, Energy-efficient, QPE and QPE+ baselines, the
// oracle Ideal scheduler, and P-CNN itself. Evaluate turns a Scenario
// (network, device, task, tuning path) into one Outcome per scheduler
// whose response time and energy come from the GPU simulator and whose
// SoC follows Eq 15 — the numbers behind Figs 13, 14 and 15. QPE+, P-CNN
// and Ideal read one compiled, DVFS-scaled plan through the serving
// executor, the same pricing the online server runs on.
package sched

import (
	"errors"
	"fmt"
	"math"

	"pcnn/internal/analytic"
	"pcnn/internal/compile"
	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/satisfaction"
	"pcnn/internal/serve"
)

// Scenario fixes everything the schedulers share.
type Scenario struct {
	Net  *nn.NetShape
	Dev  *gpu.Device
	Task satisfaction.Task
	// TuningPath is the accuracy-tuning table (least → most aggressive).
	// An empty path means no tuning is available: all schedulers run the
	// full network with BaseEntropy uncertainty.
	TuningPath  []compile.TuningPoint
	BaseEntropy float64
}

// Outcome is one scheduler's result on a scenario.
type Outcome struct {
	Scheduler string
	Batch     int
	// BatchMS is the simulated processing time of one batch; ResponseMS
	// adds the request-collection delay batching imposes.
	BatchMS         float64
	ResponseMS      float64
	EnergyPerImageJ float64
	Entropy         float64
	SoCTime         float64
	SoCAccuracy     float64
	SoC             float64
	MeetsDeadline   bool
}

// trainingBatch is the batch size the Energy-efficient scheduler inherits
// from the training stage (VGGNet trains at 256; Section V.B.2).
const trainingBatch = 256

// CollectionDelayMS returns how long batching defers a response: the
// (batch−1) additional requests must arrive first. The online server in
// internal/serve replaces this model with the measured queue wait.
func CollectionDelayMS(task satisfaction.Task, batch int) float64 {
	if batch <= 1 {
		return 0
	}
	if task.DataRateHz <= 0 {
		return 0 // background data is already on hand
	}
	return float64(batch-1) / task.DataRateHz * 1000
}

// finish assembles the satisfaction numbers shared by every scheduler from
// one batch's simulated time and energy.
func finish(name string, sc Scenario, batch int, timeMS, energyJ, entropy float64) Outcome {
	o := Outcome{
		Scheduler:       name,
		Batch:           batch,
		BatchMS:         timeMS,
		ResponseMS:      timeMS + CollectionDelayMS(sc.Task, batch),
		EnergyPerImageJ: energyJ / float64(batch),
		Entropy:         entropy,
	}
	o.SoCTime = sc.Task.SoCTime(o.ResponseMS)
	o.SoCAccuracy = sc.Task.SoCAccuracy(entropy)
	o.SoC = sc.Task.SoC(o.ResponseMS, entropy, o.EnergyPerImageJ)
	o.MeetsDeadline = o.ResponseMS <= sc.Task.Deadline()
	return o
}

// ErrNoFitBatch is the sentinel returned when not even a single-image
// batch fits the device's usable memory; Evaluate surfaces it (wrapped
// with the network and device names) instead of silently running at
// batch 1 on a device that cannot hold the network at all.
var ErrNoFitBatch = errors.New("sched: no batch size fits device memory")

// fitBatch shrinks a desired batch to the largest whose buffer-reusing
// footprint fits device memory. It fails with ErrNoFitBatch when even
// batch 1 exceeds the usable memory.
func fitBatch(net *nn.NetShape, dev *gpu.Device, batch int) (int, error) {
	fit := analytic.MaxFitBatch(net, dev)
	if fit < 1 {
		return 0, fmt.Errorf("sched: %s on %s (%d MiB usable): %w",
			net.Name, dev.Name, dev.UsableMemBytes()>>20, ErrNoFitBatch)
	}
	return min(max(batch, 1), fit), nil
}

// Evaluate runs the scheduler suite on one scenario and returns its
// outcomes in Fig 13–15 order: Perf, Energy, QPE, QPE+, P-CNN, Ideal.
//
//   - Perf runs non-batched inference with tuned kernels on every SM —
//     fastest response, no energy consideration (Section V.B.1).
//   - Energy batches at the training-stage batch size to maximize
//     throughput per joule, ignoring response time (Section V.B.2).
//   - QPE schedules for least energy under the time requirement with the
//     time model's batch and the eQoS-style DVFS of Fig 3, but without SM
//     partitioning (Section V.B.3).
//   - QPE+ adds the resource model: each layer runs on its optSM SMs with
//     the rest power gated — P-CNN without accuracy tuning (Section V.B.4).
//   - P-CNN is the full framework (levels.pcnn).
//   - Ideal is the oracle of Section V.B.5: it profiles every tuning
//     point with a-priori knowledge of the user's requirements and keeps
//     the first one with the highest SoC.
//
// Perf and Energy compile their own batch; the other four share one
// compiled, DVFS-scaled plan, which QPE+, P-CNN and Ideal price through
// one serve.PlanExecutor at the plan's own batch.
func Evaluate(sc Scenario) ([]Outcome, error) {
	path := sc.TuningPath
	if len(path) == 0 {
		path = []compile.TuningPoint{{Entropy: sc.BaseEntropy}}
	}
	base := path[0].Entropy
	perf, err := fixedBatch(sc, "Perf", 1, base)
	if err != nil {
		return nil, err
	}
	b, err := fitBatch(sc.Net, sc.Dev, trainingBatch)
	if err != nil {
		return nil, err
	}
	energy, err := fixedBatch(sc, "Energy", b, base)
	if err != nil {
		return nil, err
	}

	plan, err := compile.Compile(sc.Net, sc.Dev, sc.Task)
	if err != nil {
		return nil, fmt.Errorf("sched: QPE: %w", err)
	}
	if _, err := plan.ApplyDVFS(); err != nil {
		return nil, fmt.Errorf("sched: QPE: %w", err)
	}
	_, agg, err := plan.Simulate(false)
	if err != nil {
		return nil, fmt.Errorf("sched: QPE: %w", err)
	}
	qpe := finish("QPE", sc, plan.Batch, agg.TimeMS, agg.EnergyJ, base)

	ex, err := serve.NewPlanExecutor(plan, path, nil, nil)
	if err != nil {
		return nil, err
	}
	lv := levels{sc: sc, ex: ex, batch: plan.Batch}
	qpePlus, err := lv.at("QPE+", 0)
	if err != nil {
		return nil, err
	}
	pcnn, err := lv.pcnn()
	if err != nil {
		return nil, err
	}
	ideal, err := lv.ideal()
	if err != nil {
		return nil, err
	}
	return []Outcome{perf, energy, qpe, qpePlus, pcnn, ideal}, nil
}

// fixedBatch prices the unperforated network compiled at a batch the
// scheduler dictates, on every SM at the nominal clock.
func fixedBatch(sc Scenario, name string, batch int, entropy float64) (Outcome, error) {
	plan, err := compile.CompileAtBatch(sc.Net, sc.Dev, sc.Task, batch)
	if err != nil {
		return Outcome{}, fmt.Errorf("sched: %s: %w", name, err)
	}
	_, agg, err := plan.Simulate(false)
	if err != nil {
		return Outcome{}, fmt.Errorf("sched: %s: %w", name, err)
	}
	return finish(name, sc, batch, agg.TimeMS, agg.EnergyJ, entropy), nil
}

// levels prices the shared plan's tuning levels through one executor at
// the plan's own compiled batch, so every read is an exact simulation,
// cached per level across the schedulers.
type levels struct {
	sc    Scenario
	ex    *serve.PlanExecutor
	batch int
}

// at prices one tuning level for the named scheduler.
func (lv levels) at(name string, level int) (Outcome, error) {
	r, err := lv.ex.Execute(level, lv.batch, nil)
	if err != nil {
		return Outcome{}, fmt.Errorf("sched: %s: %w", name, err)
	}
	return finish(name, lv.sc, lv.batch, r.TimeMS, r.EnergyJ, r.Entropy), nil
}

// pcnn is P-CNN's pick. Time and accuracy carry the highest priority
// (Section IV): it first takes the most aggressive tuning level whose
// uncertainty stays inside the task threshold (serve.BaseLevel, where the
// online server starts too); if that still misses a hard deadline, it
// escalates along the tuning path — trading accuracy (SoC_accuracy < 1)
// for a met deadline, which is how it rescues the real-time task on TX1
// (Section V.C).
func (lv levels) pcnn() (Outcome, error) {
	base := serve.BaseLevel(lv.ex, lv.sc.Task)
	o, err := lv.at("P-CNN", base)
	if err != nil || o.MeetsDeadline {
		return o, err
	}
	for l := base + 1; l < lv.ex.Levels(); l++ {
		esc, err := lv.at("P-CNN", l)
		if err != nil {
			return Outcome{}, err
		}
		if esc.MeetsDeadline {
			return esc, nil
		}
	}
	return o, nil
}

// ideal is the oracle's pick: the first level with the highest SoC.
func (lv levels) ideal() (Outcome, error) {
	best := Outcome{SoC: math.Inf(-1)}
	for l := 0; l < lv.ex.Levels(); l++ {
		o, err := lv.at("Ideal", l)
		if err != nil {
			return Outcome{}, err
		}
		if o.SoC > best.SoC {
			best = o
		}
	}
	return best, nil
}
