package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"pcnn/internal/compile"
	"pcnn/internal/entropy"
	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/perforate"
	"pcnn/internal/runtimemgr"
	"pcnn/internal/satisfaction"
	"pcnn/internal/sched"
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
	// a level. It must be cheap: the batcher calls it on every flush.
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
func SyntheticPath(net *nn.NetShape, task satisfaction.Task, levels int) []sched.TuningPoint {
	if levels < 2 {
		levels = 2
	}
	const step = 0.8
	thr := task.EntropyThreshold
	if thr <= 0 {
		thr = 0.9
	}
	convs := net.ConvLayers()
	path := make([]sched.TuningPoint, 0, levels)
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
		path = append(path, sched.TuningPoint{
			Keeps:   keeps,
			Entropy: thr * (0.5 + 1.1*frac*frac),
		})
	}
	return path
}

// levelBatch keys the per-(level, batch) simulation cache.
type levelBatch struct{ level, batch int }

// planLimitProbe bounds the memory-ceiling search; far above any batch
// the roadmap's platforms compile.
const planLimitProbe = 256

// PlanExecutor implements Executor on top of a compiled plan, a
// degradation path, and (optionally) the trained scaled analogue whose
// measured entropy drives calibration.
//
// Exact plans are compiled lazily at power-of-two *anchor* batches (plus
// the deployment's own compiled batch); any other batch size executes by
// interpolation: the geometrically nearest anchor plan supplies the tuned
// per-layer design, and the Eq 12 evaluator re-derives its cost at the
// requested batch. The previous implementation compiled a fresh plan per
// distinct batch and — when device memory could not fit it — silently
// shrank the plan while still executing the full batch, mispricing every
// partial flush (the demotion-to-singleton path behind the mean_batch
// collapse). Simulated aggregates, profiles and predictions are cached
// per (level, batch), so steady-state serving costs one map lookup per
// flush.
type PlanExecutor struct {
	plan   *compile.Plan
	path   []sched.TuningPoint
	scaled *nn.Sequential

	mu       sync.Mutex
	plans    map[int]*compile.Plan
	aggs     map[levelBatch]gpu.Aggregate
	profiles map[levelBatch][]compile.LayerProfile
	preds    map[levelBatch]float64
	limit    int // memory batch ceiling; 0 = not yet probed

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
func NewPlanExecutor(plan *compile.Plan, path []sched.TuningPoint, scaled *nn.Sequential, table *runtimemgr.Table) (*PlanExecutor, error) {
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
		plan:     plan,
		path:     path,
		scaled:   scaled,
		plans:    map[int]*compile.Plan{plan.Batch: plan},
		aggs:     map[levelBatch]gpu.Aggregate{},
		profiles: map[levelBatch][]compile.LayerProfile{},
		preds:    map[levelBatch]float64{},
	}
	if scaled != nil {
		e.opts = table.ForwardOpts(scaled)
	}
	return e, nil
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
// memory can hold, probed once and cached. CompileAtBatch decrements from
// the probe ceiling until the analytic memory model fits, so one
// compilation answers the global ceiling.
func (e *PlanExecutor) BatchLimit() int {
	e.mu.Lock()
	limit := e.limit
	e.mu.Unlock()
	if limit > 0 {
		return limit
	}
	p, err := compile.CompileAtBatch(e.plan.Net, e.plan.Dev, e.plan.Task, planLimitProbe)
	if err != nil {
		limit = e.plan.Batch // pessimistic: at least the deployed plan fits
	} else {
		limit = p.Batch
	}
	e.mu.Lock()
	e.limit = limit
	if err == nil {
		if _, ok := e.plans[p.Batch]; !ok {
			e.plans[p.Batch] = p
		}
	}
	e.mu.Unlock()
	return limit
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

// planNear returns (caching) the nearest exactly-compiled plan for a
// batch: the batch's own plan on a cache hit, otherwise its power-of-two
// anchor, compiled once and shared by every nearby batch size. When
// device memory cannot hold the anchor, the compiler's largest fitting
// batch becomes the anchor and the memory ceiling is recorded — callers
// interpolate from it instead of silently executing a shrunken plan.
func (e *PlanExecutor) planNear(batch int) (*compile.Plan, error) {
	if batch < 1 {
		batch = 1
	}
	e.mu.Lock()
	p, ok := e.plans[batch]
	e.mu.Unlock()
	if ok {
		return p, nil
	}
	anchor := anchorFor(batch)
	e.mu.Lock()
	p, ok = e.plans[anchor]
	e.mu.Unlock()
	if ok {
		return p, nil
	}
	p, err := compile.CompileAtBatch(e.plan.Net, e.plan.Dev, e.plan.Task, anchor)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if p.Batch < anchor && (e.limit == 0 || p.Batch < e.limit) {
		e.limit = p.Batch // memory shrank the anchor: that is the ceiling
	}
	if prev, ok := e.plans[p.Batch]; ok {
		p = prev // lost a race or anchor shrank onto a cached batch
	} else {
		e.plans[p.Batch] = p
	}
	e.mu.Unlock()
	return p, nil
}

// predictExact sums a plan's tuned per-layer predictions at its own
// compiled batch, with conv layers scaled by the level's keep fraction
// (perforation shrinks the GEMM N dimension proportionally).
func predictExact(p *compile.Plan, keeps map[string]float64) float64 {
	var ms float64
	for _, l := range p.Layers {
		frac := 1.0
		if l.GEMM.IsConv {
			if f, ok := keeps[l.Name]; ok && f < 1 {
				frac = f
			}
		}
		ms += l.PredictedMS * frac
	}
	return ms
}

// PredictMS implements Executor: the tuned per-layer sum when a plan
// compiled at exactly this batch is cached, otherwise the Eq 12 evaluator
// re-deriving the nearest anchor plan's design at the requested batch —
// every batch size is priced without an exact (level, batch) cache hit.
func (e *PlanExecutor) PredictMS(level, batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	level = e.clamp(level)
	key := levelBatch{level, batch}
	e.mu.Lock()
	ms, ok := e.preds[key]
	e.mu.Unlock()
	if ok {
		return ms
	}
	keeps := e.path[level].Keeps
	p, err := e.planNear(batch)
	if err != nil {
		// No compilable neighbour: rescale the deployed plan's design
		// point; Execute will surface the error.
		return compile.PredictMS(e.plan, batch, keeps)
	}
	if p.Batch == batch {
		ms = predictExact(p, keeps)
	} else {
		ms = compile.PredictMS(p, batch, keeps)
	}
	e.mu.Lock()
	e.preds[key] = ms
	e.mu.Unlock()
	return ms
}

// aggFor simulates (caching) one batch at a level on the plan's device.
// Batches with an exactly-compiled plan simulate for real; any other
// batch interpolates from its anchor: the anchor's simulated aggregate
// and profile scaled by the Eq 12 cost ratio between the two batches, so
// a 3-wide flush is priced between the 2- and 4-wide simulations rather
// than executing a silently shrunken plan. Alongside the aggregate it
// keeps the per-layer profile, so Profile answers from cache for any
// operating point the server has actually run.
func (e *PlanExecutor) aggFor(level, batch int) (gpu.Aggregate, error) {
	key := levelBatch{level, batch}
	e.mu.Lock()
	agg, ok := e.aggs[key]
	e.mu.Unlock()
	if ok {
		return agg, nil
	}
	p, err := e.planNear(batch)
	if err != nil {
		return gpu.Aggregate{}, err
	}
	keeps := e.path[level].Keeps
	if p.Batch != batch {
		// Interpolate: simulate the anchor exactly (recursion bottoms out —
		// plans[p.Batch] is cached), then scale by the analytic cost ratio.
		anchorAgg, err := e.aggFor(level, p.Batch)
		if err != nil {
			return gpu.Aggregate{}, err
		}
		anchorMS := e.PredictMS(level, p.Batch)
		ratio := 1.0
		if anchorMS > 0 {
			ratio = e.PredictMS(level, batch) / anchorMS
		}
		agg = gpu.Aggregate{
			TimeMS:    anchorAgg.TimeMS * ratio,
			EnergyJ:   anchorAgg.EnergyJ * ratio,
			AvgPowerW: anchorAgg.AvgPowerW,
		}
		e.mu.Lock()
		prof := make([]compile.LayerProfile, len(e.profiles[levelBatch{level, p.Batch}]))
		copy(prof, e.profiles[levelBatch{level, p.Batch}])
		for i := range prof {
			prof[i].PredictedMS *= ratio
			prof[i].TimeMS *= ratio
			prof[i].EnergyJ *= ratio
		}
		e.aggs[key] = agg
		e.profiles[key] = prof
		e.mu.Unlock()
		return agg, nil
	}
	var results []gpu.Result
	if len(keeps) == 0 {
		results, agg, err = p.Simulate(true)
	} else {
		var launches []gpu.Launch
		launches, err = p.PerforatedLaunches(keeps, true)
		if err != nil {
			return gpu.Aggregate{}, err
		}
		results, agg, err = p.Device().Run(launches)
	}
	if err != nil {
		return gpu.Aggregate{}, err
	}
	e.mu.Lock()
	e.aggs[key] = agg
	e.profiles[key] = p.ProfileResults(results, keeps)
	e.mu.Unlock()
	return agg, nil
}

// Profile implements the serve LayerProfiler interface: the per-layer
// time/energy breakdown of one batch at a level, simulated on first use
// and cached with the aggregate thereafter. The profile's PredictedMS
// column sums exactly to PredictMS(level, batch).
func (e *PlanExecutor) Profile(level, batch int) ([]compile.LayerProfile, error) {
	level = e.clamp(level)
	if batch < 1 {
		batch = 1
	}
	if _, err := e.aggFor(level, batch); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]compile.LayerProfile(nil), e.profiles[levelBatch{level, batch}]...), nil
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
	agg, err := e.aggFor(level, batch)
	if err != nil {
		return BatchResult{}, err
	}
	res := BatchResult{TimeMS: agg.TimeMS, EnergyJ: agg.EnergyJ, Entropy: e.path[level].Entropy}
	if e.scaled != nil && inputs != nil && inputs.Dim(0) > 0 {
		res.Probs = e.scaled.PredictWith(inputs, e.opts[min(level, len(e.opts)-1)])
		res.Entropy = entropy.Mean(res.Probs)
	}
	return res, nil
}
