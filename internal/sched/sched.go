// Package sched implements the scheduler suite of Section V.B: the
// Performance-preferred, Energy-efficient, QPE and QPE+ baselines, the
// oracle Ideal scheduler, and P-CNN itself. Each scheduler turns a
// Scenario (network, device, task, tuning path) into an Outcome whose
// response time and energy come from the GPU simulator and whose SoC
// follows Eq 15 — the numbers behind Figs 13, 14 and 15.
package sched

import (
	"errors"
	"fmt"
	"math"

	"pcnn/internal/compile"
	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/satisfaction"
)

// TuningPoint is one transferred entry of the accuracy-tuning table: the
// per-conv-layer keep fractions and the uncertainty measured at that
// level. Point 0 of a path is the unperforated network.
type TuningPoint struct {
	Keeps   map[string]float64 // conv layer name → computed-area fraction
	Entropy float64            // mean output entropy at this level (nats)
}

// Scenario fixes everything the schedulers share.
type Scenario struct {
	Net  *nn.NetShape
	Dev  *gpu.Device
	Task satisfaction.Task
	// TuningPath is the accuracy-tuning table (least → most aggressive).
	// An empty path means no tuning is available: all schedulers run the
	// full network with BaseEntropy uncertainty.
	TuningPath  []TuningPoint
	BaseEntropy float64
}

// basePoint returns the unperforated tuning point.
func (sc Scenario) basePoint() TuningPoint {
	if len(sc.TuningPath) > 0 {
		return sc.TuningPath[0]
	}
	return TuningPoint{Entropy: sc.BaseEntropy}
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

// Scheduler maps a scenario to an outcome.
type Scheduler interface {
	Name() string
	Run(sc Scenario) (Outcome, error)
}

// All returns the evaluation's scheduler suite in Fig 13–15 order.
func All() []Scheduler {
	return []Scheduler{
		PerformancePreferred{},
		EnergyEfficient{},
		QPE{},
		QPEPlus{},
		PCNN{},
		Ideal{},
	}
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

// finish assembles the satisfaction numbers shared by every scheduler.
func finish(name string, sc Scenario, batch int, agg gpu.Aggregate, entropy float64) Outcome {
	o := Outcome{
		Scheduler:       name,
		Batch:           batch,
		BatchMS:         agg.TimeMS,
		ResponseMS:      agg.TimeMS + CollectionDelayMS(sc.Task, batch),
		EnergyPerImageJ: agg.EnergyJ / float64(batch),
		Entropy:         entropy,
	}
	o.SoCTime = sc.Task.SoCTime(o.ResponseMS)
	o.SoCAccuracy = sc.Task.SoCAccuracy(entropy)
	o.SoC = sc.Task.SoC(o.ResponseMS, entropy, o.EnergyPerImageJ)
	o.MeetsDeadline = o.ResponseMS <= sc.Task.Deadline()
	return o
}

// ErrNoFitBatch is the sentinel returned when not even a single-image
// batch fits the device's usable memory; schedulers surface it (wrapped
// with the network and device names) instead of silently running at
// batch 1 on a device that cannot hold the network at all.
var ErrNoFitBatch = errors.New("sched: no batch size fits device memory")

// fitBatch shrinks a desired batch until the buffer-reusing footprint fits
// device memory. It fails with ErrNoFitBatch when even batch 1 exceeds the
// usable memory.
func fitBatch(net *nn.NetShape, dev *gpu.Device, batch int) (int, error) {
	b := batch
	if b < 1 {
		b = 1
	}
	for b > 1 && net.MemoryFootprintBytes(b) > dev.UsableMemBytes() {
		b--
	}
	if net.MemoryFootprintBytes(b) > dev.UsableMemBytes() {
		return 0, fmt.Errorf("sched: %s on %s (%d MiB usable): %w",
			net.Name, dev.Name, dev.UsableMemBytes()>>20, ErrNoFitBatch)
	}
	return b, nil
}

// PerformancePreferred runs non-batched inference with tuned kernels on
// every SM — fastest response, no energy consideration (Section V.B.1).
type PerformancePreferred struct{}

// Name implements Scheduler.
func (PerformancePreferred) Name() string { return "Perf" }

// Run implements Scheduler.
func (PerformancePreferred) Run(sc Scenario) (Outcome, error) {
	plan, err := compile.CompileAtBatch(sc.Net, sc.Dev, sc.Task, 1)
	if err != nil {
		return Outcome{}, err
	}
	_, agg, err := plan.Simulate(false)
	if err != nil {
		return Outcome{}, err
	}
	return finish("Perf", sc, 1, agg, sc.basePoint().Entropy), nil
}

// EnergyEfficient batches at the training-stage batch size to maximize
// throughput per joule, ignoring response time (Section V.B.2).
type EnergyEfficient struct{}

// Name implements Scheduler.
func (EnergyEfficient) Name() string { return "Energy" }

// Run implements Scheduler.
func (EnergyEfficient) Run(sc Scenario) (Outcome, error) {
	b, err := fitBatch(sc.Net, sc.Dev, trainingBatch)
	if err != nil {
		return Outcome{}, err
	}
	plan, err := compile.CompileAtBatch(sc.Net, sc.Dev, sc.Task, b)
	if err != nil {
		return Outcome{}, err
	}
	_, agg, err := plan.Simulate(false)
	if err != nil {
		return Outcome{}, err
	}
	return finish("Energy", sc, b, agg, sc.basePoint().Entropy), nil
}

// QPE schedules for least energy under the time requirement using the
// time model's batch adjustment, but without SM partitioning
// (Section V.B.3).
type QPE struct{}

// Name implements Scheduler.
func (QPE) Name() string { return "QPE" }

// Run implements Scheduler.
func (QPE) Run(sc Scenario) (Outcome, error) {
	plan, err := compile.Compile(sc.Net, sc.Dev, sc.Task)
	if err != nil {
		return Outcome{}, err
	}
	// QPE is the eQoS-style scheduler: burn the imperceptible-region slack
	// with frequency scaling (Fig 3).
	if _, err := plan.ApplyDVFS(gpu.DefaultFreqLevels); err != nil {
		return Outcome{}, err
	}
	_, agg, err := plan.Simulate(false)
	if err != nil {
		return Outcome{}, err
	}
	return finish("QPE", sc, plan.Batch, agg, sc.basePoint().Entropy), nil
}

// QPEPlus is QPE plus the resource model: each layer runs on its optSM
// SMs with the rest power gated — P-CNN without accuracy tuning
// (Section V.B.4).
type QPEPlus struct{}

// Name implements Scheduler.
func (QPEPlus) Name() string { return "QPE+" }

// Run implements Scheduler.
func (QPEPlus) Run(sc Scenario) (Outcome, error) {
	plan, err := compile.Compile(sc.Net, sc.Dev, sc.Task)
	if err != nil {
		return Outcome{}, err
	}
	if _, err := plan.ApplyDVFS(gpu.DefaultFreqLevels); err != nil {
		return Outcome{}, err
	}
	_, agg, err := plan.Simulate(true)
	if err != nil {
		return Outcome{}, err
	}
	return finish("QPE+", sc, plan.Batch, agg, sc.basePoint().Entropy), nil
}

// PCNN is the full framework: offline compilation, SM partitioning with
// power gating, and the fastest accuracy-tuning level whose uncertainty
// stays inside the task's threshold.
type PCNN struct{}

// Name implements Scheduler.
func (PCNN) Name() string { return "P-CNN" }

// Run implements Scheduler. Time and accuracy carry the highest priority
// (Section IV): P-CNN first picks the most aggressive tuning point whose
// uncertainty stays inside the task threshold; if that still misses a
// hard deadline, it escalates along the tuning path — trading accuracy
// (SoC_accuracy < 1) for a met deadline, which is how it rescues the
// real-time task on TX1 (Section V.C).
func (PCNN) Run(sc Scenario) (Outcome, error) {
	plan, err := compile.Compile(sc.Net, sc.Dev, sc.Task)
	if err != nil {
		return Outcome{}, err
	}
	if _, err := plan.ApplyDVFS(gpu.DefaultFreqLevels); err != nil {
		return Outcome{}, err
	}
	pt := sc.basePoint()
	idx := -1
	for i, cand := range sc.TuningPath {
		if cand.Entropy <= sc.Task.EntropyThreshold {
			pt, idx = cand, i
		}
	}
	agg, err := simulatePoint(plan, pt)
	if err != nil {
		return Outcome{}, err
	}
	o := finish("P-CNN", sc, plan.Batch, agg, pt.Entropy)
	if o.MeetsDeadline {
		return o, nil
	}
	for i := idx + 1; i < len(sc.TuningPath); i++ {
		cand := sc.TuningPath[i]
		agg, err := simulatePoint(plan, cand)
		if err != nil {
			return Outcome{}, err
		}
		esc := finish("P-CNN", sc, plan.Batch, agg, cand.Entropy)
		if esc.MeetsDeadline {
			return esc, nil
		}
	}
	return o, nil
}

// Ideal is the oracle of Section V.B.5: it profiles every tuning point
// (with a-priori knowledge of the user's requirements) and keeps the one
// with the highest SoC.
type Ideal struct{}

// Name implements Scheduler.
func (Ideal) Name() string { return "Ideal" }

// Run implements Scheduler.
func (Ideal) Run(sc Scenario) (Outcome, error) {
	plan, err := compile.Compile(sc.Net, sc.Dev, sc.Task)
	if err != nil {
		return Outcome{}, err
	}
	if _, err := plan.ApplyDVFS(gpu.DefaultFreqLevels); err != nil {
		return Outcome{}, err
	}
	points := sc.TuningPath
	if len(points) == 0 {
		points = []TuningPoint{sc.basePoint()}
	}
	best := Outcome{SoC: math.Inf(-1)}
	for _, pt := range points {
		agg, err := simulatePoint(plan, pt)
		if err != nil {
			return Outcome{}, err
		}
		o := finish("Ideal", sc, plan.Batch, agg, pt.Entropy)
		if o.SoC > best.SoC {
			best = o
		}
	}
	return best, nil
}

// simulatePoint runs a plan at a tuning point's keep fractions.
func simulatePoint(plan *compile.Plan, pt TuningPoint) (gpu.Aggregate, error) {
	if len(pt.Keeps) == 0 {
		_, agg, err := plan.Simulate(true)
		return agg, err
	}
	launches, err := plan.PerforatedLaunches(pt.Keeps, true)
	if err != nil {
		return gpu.Aggregate{}, err
	}
	_, agg, err := plan.Device().Run(launches)
	return agg, err
}
