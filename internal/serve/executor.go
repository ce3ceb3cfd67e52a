package serve

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"pcnn/internal/analytic"
	"pcnn/internal/compile"
	"pcnn/internal/entropy"
	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/par"
	"pcnn/internal/perforate"
	"pcnn/internal/runtimemgr"
	"pcnn/internal/satisfaction"
	"pcnn/internal/tensor"
)

// BatchResult is what executing one coalesced batch produced.
type BatchResult struct {
	// TimeMS and EnergyJ are the simulated cost of the whole batch on the
	// plan's device.
	TimeMS  float64
	EnergyJ float64
	// Entropy is the batch's output uncertainty: measured on the attached
	// executable network when one is present, otherwise the degradation
	// path's recorded value for the level.
	Entropy float64
	// Probs holds per-request softmax rows when an executable network ran
	// the batch for real; nil for simulation-only pipelines.
	Probs [][]float32
}

// Executor runs coalesced batches at a degradation level. Level 0 is the
// unperforated network; higher levels perforate more aggressively and run
// faster at higher output uncertainty. Implementations must be safe for
// concurrent use by the worker pool.
type Executor interface {
	// MaxBatch is the batch size the compiled plan selected; the batcher
	// coalesces up to this many requests by default.
	MaxBatch() int
	// Levels returns the number of degradation levels (≥ 1).
	Levels() int
	// Entropy returns the recorded output uncertainty at a level, the
	// value the server compares against the task threshold when picking
	// its base operating point.
	Entropy(level int) float64
	// PredictMS is the Eq 12 time-model estimate for executing a batch at
	// a level — for a PlanExecutor, compile.PredictMS at every batch, the
	// deployed one included. It must be cheap: the batcher calls it on
	// every flush.
	PredictMS(level, batch int) float64
	// Execute runs one batch. inputs is an N×C×H×W tensor when every
	// request carried a sample and the pipeline has an executable network;
	// nil otherwise.
	Execute(level, batch int, inputs *tensor.Tensor) (BatchResult, error)
}

// DefaultSyntheticLevels is how many degradation levels SyntheticPath
// builds for pipelines without a measured tuning table.
const DefaultSyntheticLevels = 6

// SyntheticPath builds a degradation path for pipelines that have no
// trained scaled analogue (and hence no measured tuning table): level i
// perforates every conv layer to step^i of its output area, quantized to
// the grids perforate actually computes, with entropies ramping from half
// the task threshold at level 0 to ~1.6× the threshold at the deepest
// level — so escalation past the threshold (and the calibration backtrack
// it triggers) stays reachable, mirroring the measured tables the tuner
// emits.
func SyntheticPath(net *nn.NetShape, task satisfaction.Task, levels int) []compile.TuningPoint {
	if levels < 2 {
		levels = 2
	}
	const step = 0.8
	thr := task.EntropyThreshold
	if thr <= 0 {
		thr = 0.9
	}
	convs := net.ConvLayers()
	path := make([]compile.TuningPoint, 0, levels)
	for i := 0; i < levels; i++ {
		target := math.Pow(step, float64(i))
		var keeps map[string]float64
		if i > 0 {
			keeps = make(map[string]float64, len(convs))
			for _, c := range convs {
				ho, wo := c.OutDims()
				keeps[c.Name] = perforate.KeptFraction(wo, ho, target)
			}
		}
		frac := float64(i) / float64(levels-1)
		path = append(path, compile.TuningPoint{
			Keeps:   keeps,
			Entropy: thr * (0.5 + 1.1*frac*frac),
		})
	}
	return path
}

// levelBatch keys the per-(level, batch) simulation and prediction caches.
type levelBatch struct{ level, batch int }

// simulated is one (level, batch) cell: the batch's simulated aggregate
// and its per-layer profile.
type simulated struct {
	agg     gpu.Aggregate
	profile []compile.LayerProfile
}

// planLimitProbe bounds the memory ceiling; far above any batch the
// roadmap's platforms compile.
const planLimitProbe = 256

// The executor's two costly calls. They are variables so the package's
// tests can count them.
var (
	compileAtBatch = compile.CompileAtBatch
	simulatePlan   = func(p *compile.Plan, keeps map[string]float64) ([]gpu.Result, gpu.Aggregate, error) {
		if len(keeps) == 0 {
			return p.Simulate(true)
		}
		launches, err := p.PerforatedLaunches(keeps, true)
		if err != nil {
			return nil, gpu.Aggregate{}, err
		}
		return p.Device().Run(launches)
	}
)

// PlanExecutor implements Executor on top of a compiled plan, a
// degradation path, and (optionally) the trained scaled analogue whose
// measured entropy drives calibration.
//
// Exact plans are compiled lazily at power-of-two *anchor* batches (plus
// the deployment's own compiled batch and the memory ceiling's, both held
// from construction), each on the plan's own — possibly DVFS-scaled —
// device (Plan.Device), so every batch runs at the deployed clock; any
// other batch size executes by interpolation: the geometrically nearest
// anchor plan supplies the tuned per-layer design, and the Eq 12
// evaluator re-derives its cost at the requested batch. The previous
// implementation compiled a fresh plan per distinct batch and — when
// device memory could not fit it — silently shrank the plan while still
// executing the full batch, mispricing every partial flush (the
// demotion-to-singleton path behind the mean_batch collapse). Anchor
// plans, simulated aggregates with their profiles, and predictions are
// each computed once per key — concurrent callers of a key wait for the
// first — so steady-state serving costs one map lookup per flush. The
// caches only memoize: every answer is the same whichever caller warms
// them first, so concurrent servers may share one executor.
type PlanExecutor struct {
	plan   *compile.Plan
	path   []compile.TuningPoint
	scaled *nn.Sequential
	limit  int // memory batch ceiling, probed at construction
	maxFit int // the largest batch device memory holds (analytic.MaxFitBatch)

	plans par.OnceMap[int, *compile.Plan] // exact plans by batch
	sims  par.OnceMap[levelBatch, simulated]
	preds par.OnceMap[levelBatch, float64]

	// opts[level] is the operating point a batch runs the scaled network
	// at: the tuning-table row's resolved masks on the package-default
	// engine. Built once at construction and immutable, so any number of
	// workers run forward concurrently on the shared network — an operating
	// point is the options of one call, not state programmed onto the
	// layers.
	opts []*nn.ForwardOpts
}

// NewPlanExecutor builds the production executor. path may be nil, in
// which case a synthetic degradation path is derived from the plan's
// network and task. scaled and table must be passed together (the table
// maps levels onto the scaled network's perforable layers); both nil gives
// a simulation-only pipeline.
func NewPlanExecutor(plan *compile.Plan, path []compile.TuningPoint, scaled *nn.Sequential, table *runtimemgr.Table) (*PlanExecutor, error) {
	if plan == nil {
		return nil, errors.New("serve: NewPlanExecutor needs a compiled plan")
	}
	if (scaled == nil) != (table == nil) {
		return nil, errors.New("serve: scaled network and tuning table must be attached together")
	}
	if len(path) == 0 {
		path = SyntheticPath(plan.Net, plan.Task, DefaultSyntheticLevels)
	}
	e := &PlanExecutor{
		plan:   plan,
		path:   path,
		scaled: scaled,
		maxFit: analytic.MaxFitBatch(plan.Net, plan.Device()),
	}
	e.plans.Get(plan.Batch, func() (*compile.Plan, error) { return plan, nil })
	if scaled != nil {
		e.opts = table.ForwardOpts(scaled)
	}
	e.probeLimit()
	return e, nil
}

// Recompile compiles the executor's network for its device and task
// afresh, applying the DVFS frequency ladder when dvfs is set, into a new
// executor on the same degradation path, scaled network and operating
// points: a hot-swap recompiles without losing what tuning measured.
func (e *PlanExecutor) Recompile(dvfs bool) (*PlanExecutor, error) {
	plan, err := compile.Compile(e.plan.Net, e.plan.Dev, e.plan.Task)
	if err != nil {
		return nil, err
	}
	if dvfs {
		if _, err := plan.ApplyDVFS(); err != nil {
			return nil, err
		}
	}
	next, err := NewPlanExecutor(plan, e.path, nil, nil)
	if err != nil {
		return nil, err
	}
	next.scaled, next.opts = e.scaled, e.opts
	return next, nil
}

// MaxBatch implements Executor.
func (e *PlanExecutor) MaxBatch() int { return e.plan.Batch }

// Levels implements Executor.
func (e *PlanExecutor) Levels() int { return len(e.path) }

// Entropy implements Executor.
func (e *PlanExecutor) Entropy(level int) float64 {
	return e.path[e.clamp(level)].Entropy
}

func (e *PlanExecutor) clamp(level int) int {
	if level < 0 {
		return 0
	}
	if level >= len(e.path) {
		return len(e.path) - 1
	}
	return level
}

// BatchLimit implements BatchLimiter: the largest batch the plan's device
// memory can hold, probed at construction.
func (e *PlanExecutor) BatchLimit() int { return e.limit }

// fitted is the batch CompileAtBatch compiles when asked for batch: the
// batch itself, shrunk to the memory ceiling when the device cannot hold
// it.
func (e *PlanExecutor) fitted(batch int) int { return max(1, min(batch, e.maxFit)) }

// probeLimit records the memory ceiling and holds its plan. It runs at
// construction, before any caller can price the ceiling batch: were its
// plan compiled later, PredictMS and Execute at that batch would answer
// by Eq 12 from a smaller anchor before and exactly after, so answers
// would depend on which caller asked first.
func (e *PlanExecutor) probeLimit() {
	e.limit = e.fitted(planLimitProbe)
	if _, err := e.compile(e.limit); err != nil {
		e.limit = e.plan.Batch // pessimistic: at least the deployed plan fits
	}
}

// compile returns the plan compiled at batch, which must fit device
// memory, compiling it on first use.
func (e *PlanExecutor) compile(batch int) (*compile.Plan, error) {
	return e.plans.Get(batch, func() (*compile.Plan, error) {
		return compileAtBatch(e.plan.Net, e.plan.Device(), e.plan.Task, batch)
	})
}

// anchorFor maps a batch onto its power-of-two anchor: the geometrically
// nearest power of two, which bounds the Eq 12 extrapolation ratio by √2.
func anchorFor(batch int) int {
	if batch <= 1 {
		return 1
	}
	lo := 1
	for lo*2 <= batch {
		lo *= 2
	}
	if lo == batch {
		return batch
	}
	hi := lo * 2
	// Geometric midpoint: batch² against lo·hi.
	if batch*batch <= lo*hi {
		return lo
	}
	return hi
}

// planNear returns the nearest exactly-compiled plan for a batch: the
// deployed plan and the memory ceiling's answer their own batches, any
// other batch its power-of-two anchor, compiled once and shared by every
// nearby batch size. When device memory cannot hold the anchor, the
// compiler's largest fitting batch becomes the anchor: callers
// interpolate from it instead of silently executing a shrunken plan.
func (e *PlanExecutor) planNear(batch int) (*compile.Plan, error) {
	batch = max(batch, 1)
	if batch != e.plan.Batch && batch != e.limit {
		batch = e.fitted(anchorFor(batch))
	}
	return e.compile(batch)
}

// PredictMS implements Executor: compile.PredictMS on planNear(batch),
// the plan Execute simulates or interpolates from, at every batch.
func (e *PlanExecutor) PredictMS(level, batch int) float64 {
	batch, level = max(batch, 1), e.clamp(level)
	ms, _ := e.preds.Get(levelBatch{level, batch}, func() (float64, error) {
		p, err := e.planNear(batch)
		if err != nil {
			// No compilable neighbour: rescale the deployed plan's design
			// point; Execute will surface the error.
			p = e.plan
		}
		return compile.PredictMS(p, batch, e.path[level].Keeps), nil
	})
	return ms
}

// simulate prices one batch at a level on the plan's device. Batches with
// an exactly-compiled plan simulate for real; any other batch
// interpolates from its anchor: the anchor's simulated aggregate and
// profile scaled by the Eq 12 cost ratio between the two batches, so a
// 3-wide flush is priced between the 2- and 4-wide simulations rather than
// executing a silently shrunken plan. The per-layer profile rides along,
// so Profile answers from cache for any operating point the server has
// actually run.
func (e *PlanExecutor) simulate(level, batch int) (simulated, error) {
	return e.sims.Get(levelBatch{level, batch}, func() (simulated, error) {
		p, err := e.planNear(batch)
		if err != nil {
			return simulated{}, err
		}
		keeps := e.path[level].Keeps
		if p.Batch == batch {
			results, agg, err := simulatePlan(p, keeps)
			if err != nil {
				return simulated{}, err
			}
			return simulated{agg: agg, profile: p.ProfileResults(results, keeps)}, nil
		}
		// Interpolate: simulate the anchor exactly (recursion bottoms out —
		// p is the anchor's own plan), then scale by the analytic cost
		// ratio; the predicted column is the Eq 12 terms at this batch.
		anchor, err := e.simulate(level, p.Batch)
		if err != nil {
			return simulated{}, err
		}
		anchorMS := e.PredictMS(level, p.Batch)
		ratio := 1.0
		if anchorMS > 0 {
			ratio = e.PredictMS(level, batch) / anchorMS
		}
		pred := compile.LayerPredictMS(p, batch, keeps)
		prof := slices.Clone(anchor.profile)
		for i := range prof {
			prof[i].PredictedMS = pred[i]
			prof[i].TimeMS *= ratio
			prof[i].EnergyJ *= ratio
		}
		return simulated{
			agg: gpu.Aggregate{
				TimeMS:    anchor.agg.TimeMS * ratio,
				EnergyJ:   anchor.agg.EnergyJ * ratio,
				AvgPowerW: anchor.agg.AvgPowerW,
			},
			profile: prof,
		}, nil
	})
}

// Profile implements the serve LayerProfiler interface: the per-layer
// time/energy breakdown of one batch at a level, simulated on first use
// and cached with the aggregate thereafter. The profile's PredictedMS
// column sums exactly to PredictMS(level, batch).
func (e *PlanExecutor) Profile(level, batch int) ([]compile.LayerProfile, error) {
	s, err := e.simulate(e.clamp(level), max(batch, 1))
	if err != nil {
		return nil, err
	}
	return append([]compile.LayerProfile(nil), s.profile...), nil
}

// Execute implements Executor: the GPU simulator supplies the batch's time
// and energy at the level's perforation, and — when an executable network
// is attached — the scaled analogue classifies the inputs for real at the
// level's operating point, supplying softmax rows and measured entropy for
// calibration.
func (e *PlanExecutor) Execute(level, batch int, inputs *tensor.Tensor) (BatchResult, error) {
	if batch < 1 {
		return BatchResult{}, fmt.Errorf("serve: execute batch %d", batch)
	}
	level = e.clamp(level)
	s, err := e.simulate(level, batch)
	if err != nil {
		return BatchResult{}, err
	}
	res := BatchResult{TimeMS: s.agg.TimeMS, EnergyJ: s.agg.EnergyJ, Entropy: e.path[level].Entropy}
	if e.scaled != nil && inputs != nil && inputs.Dim(0) > 0 {
		res.Probs = e.scaled.PredictWith(inputs, e.opts[min(level, len(e.opts)-1)])
		res.Entropy = entropy.Mean(res.Probs)
	}
	return res, nil
}
