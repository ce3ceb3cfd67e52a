package scenario

import (
	"context"
	"fmt"
	"time"

	"pcnn/internal/compile"
	"pcnn/internal/fault"
	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/obs"
	"pcnn/internal/par"
	"pcnn/internal/satisfaction"
	"pcnn/internal/serve"
	"pcnn/internal/simdrive"
	"pcnn/internal/tensor"
	"pcnn/internal/workload"
)

// streamTimeout bounds one stream's wall-clock run; virtual-time serving
// resolves in microseconds per batch, so hitting this means a deadlock.
const streamTimeout = 2 * time.Minute

// planKey identifies one compiled deployment in the engine's caches.
// ApplyDVFS mutates the plan it scales, so the DVFS variant is a separate
// compilation, never a toggle on a shared plan.
type planKey struct {
	platform, net, task string
	fps                 float64
	dvfs                bool
}

// corunFactor is the cached interference of co-running the background
// tagging workload under one plan: time and energy multipliers relative
// to running alone.
type corunFactor struct{ timeX, energyX float64 }

// Engine runs scenario specs. The zero value is ready; caches persist
// across Run calls, so a matrix sharing deployments compiles each once.
// It is safe for concurrent Run calls: every cache entry is computed once
// per key, so concurrent rows on one deployment share one plan, one
// co-run factor and one executor.
type Engine struct {
	// ExecutorFor, when non-nil, replaces executor construction — tests
	// inject fixed-cost fakes so golden outputs stay independent of the
	// simulator's floating-point behaviour. plan is nil when the engine
	// did not need a compilation (explicit rates, no DVFS/co-run). It may
	// be called concurrently.
	ExecutorFor func(sp Spec, st StreamSpec, plan *compile.Plan) (serve.Executor, error)

	plans par.OnceMap[planKey, *compile.Plan]
	execs par.OnceMap[planKey, serve.Executor]
	corun par.OnceMap[planKey, corunFactor]
}

// planFor compiles (caching) the deployment for one stream's task.
func (e *Engine) planFor(key planKey, dev *gpu.Device, net *nn.NetShape, task satisfaction.Task) (*compile.Plan, error) {
	return e.plans.Get(key, func() (*compile.Plan, error) {
		p, err := compile.Compile(net, dev, task)
		if err != nil {
			return nil, err
		}
		if key.dvfs {
			if _, err := p.ApplyDVFS(); err != nil {
				return nil, err
			}
		}
		return p, nil
	})
}

// corunFor measures (caching) the co-run interference factor for a plan:
// the background GoogLeNet tagging workload cycles on each layer's freed
// SMs, and the plan's shared-vs-alone aggregate ratio becomes the
// stream's execution-cost multiplier.
func (e *Engine) corunFor(key planKey, plan *compile.Plan, dev *gpu.Device) (corunFactor, error) {
	return e.corun.Get(key, func() (corunFactor, error) {
		bgKey := planKey{platform: key.platform, net: "GoogLeNet", task: "tagging"}
		bg, err := e.planFor(bgKey, dev, nn.GoogLeNetShape(), satisfaction.ImageTagging())
		if err != nil {
			return corunFactor{}, err
		}
		shared, err := plan.SimulateShared(bg)
		if err != nil {
			return corunFactor{}, err
		}
		_, alone, err := plan.Simulate(true)
		if err != nil {
			return corunFactor{}, err
		}
		f := corunFactor{timeX: 1, energyX: 1}
		if alone.TimeMS > 0 {
			f.timeX = shared.Aggregate.TimeMS / alone.TimeMS
		}
		if alone.EnergyJ > 0 {
			f.energyX = shared.Aggregate.EnergyJ / alone.EnergyJ
		}
		// Donating freed SMs must not be modelled as a speedup; clamp the
		// foreground's view of sharing at break-even.
		if f.timeX < 1 {
			f.timeX = 1
		}
		if f.energyX < 1 {
			f.energyX = 1
		}
		return f, nil
	})
}

// corunExecutor scales an executor's predicted and simulated costs by a
// fixed interference factor.
type corunExecutor struct {
	serve.Executor
	f corunFactor
}

func (c corunExecutor) PredictMS(level, batch int) float64 {
	return c.Executor.PredictMS(level, batch) * c.f.timeX
}

func (c corunExecutor) Execute(level, batch int, inputs *tensor.Tensor) (serve.BatchResult, error) {
	r, err := c.Executor.Execute(level, batch, inputs)
	r.TimeMS *= c.f.timeX
	r.EnergyJ *= c.f.energyX
	return r, err
}

// executorFor resolves one stream's executor, plan and co-run factor.
func (e *Engine) executorFor(sp Spec, st StreamSpec, task satisfaction.Task) (serve.Executor, *compile.Plan, corunFactor, error) {
	factor := corunFactor{timeX: 1, energyX: 1}
	key := planKey{platform: sp.Platform, net: sp.Net, task: st.Task, fps: st.FPS, dvfs: sp.DVFS}

	// A compilation is only needed when something consumes it: the default
	// executor, DVFS, co-run interference, or a capacity-derived rate.
	var plan *compile.Plan
	needPlan := e.ExecutorFor == nil || sp.DVFS || sp.CoRun || st.RateRPS <= 0
	if needPlan {
		dev := gpu.PlatformByName(sp.Platform)
		net := nn.NetShapeByName(sp.Net)
		var err error
		plan, err = e.planFor(key, dev, net, task)
		if err != nil {
			return nil, nil, factor, err
		}
		if sp.CoRun {
			factor, err = e.corunFor(key, plan, dev)
			if err != nil {
				return nil, nil, factor, err
			}
		}
	}

	var ex serve.Executor
	if e.ExecutorFor != nil {
		var err error
		ex, err = e.ExecutorFor(sp, st, plan)
		if err != nil {
			return nil, nil, factor, err
		}
	} else {
		var err error
		ex, err = e.execs.Get(key, func() (serve.Executor, error) {
			return serve.NewPlanExecutor(plan, nil, nil, nil)
		})
		if err != nil {
			return nil, nil, factor, err
		}
	}
	if sp.CoRun && factor.timeX > 1 {
		ex = corunExecutor{Executor: ex, f: factor}
	}
	return ex, plan, factor, nil
}

// arrivalRate resolves a stream's mean arrival rate: explicit RateRPS,
// else Load × one worker's serving capacity at the base operating point —
// except a real-time stream with no Load, which arrives at its camera's
// FPS.
func arrivalRate(st StreamSpec, task satisfaction.Task, ex serve.Executor, maxBatch int) float64 {
	switch {
	case st.RateRPS > 0:
		return st.RateRPS
	case task.Class == satisfaction.RealTime && st.Load <= 0:
		return st.FPS
	}
	return st.Load * serve.CapacityRPS(ex, task, maxBatch)
}

// Run executes one scenario and returns its deterministic row.
func (e *Engine) Run(sp Spec) (Row, error) {
	sp = sp.withDefaults()
	if err := sp.Validate(); err != nil {
		return Row{}, err
	}
	row := Row{
		Name:     sp.Name,
		Platform: sp.Platform,
		Net:      sp.Net,
		DVFS:     sp.DVFS,
		CoRun:    sp.CoRun,
		Chaos:    sp.Chaos.String(),
		Seed:     sp.Seed,
	}
	var lat obs.LatencyHist
	for i, st := range sp.Streams {
		task, err := satisfaction.TaskByName(st.Task, st.FPS)
		if err != nil {
			return Row{}, err
		}
		ex, plan, factor, err := e.executorFor(sp, st, task)
		if err != nil {
			return Row{}, fmt.Errorf("scenario %s stream %d: %w", sp.Name, i, err)
		}
		srow, streamLat, err := e.runStream(sp, i, st, task, ex, plan, factor)
		if err != nil {
			return Row{}, fmt.Errorf("scenario %s stream %d (%s): %w", sp.Name, i, st.Task, err)
		}
		row.Streams = append(row.Streams, srow)
		lat.Merge(&streamLat)
	}
	row.aggregate(&lat)
	return row, nil
}

// runStream serves one stream's full arrival sequence on the virtual
// clock and folds the outcome into a StreamRow, returning beside it the
// server's latency histogram.
func (e *Engine) runStream(sp Spec, idx int, st StreamSpec, task satisfaction.Task,
	ex serve.Executor, plan *compile.Plan, factor corunFactor) (StreamRow, obs.LatencyHist, error) {

	// The deadline-aware cap, not the plan's compiled batch: a surveillance
	// plan compiled for per-frame arrival carries batch 1, which used to pin
	// every stream to singleton flushes regardless of how many requests the
	// window coalesced.
	maxBatch := serve.BatchCap(ex, task)

	var inj *fault.Injector
	if sp.Chaos.Enabled() {
		fs := sp.Chaos
		if fs.Seed == 0 {
			fs.Seed = sp.Seed
		}
		fs.Seed += int64(idx) * 101
		var err error
		inj, err = fault.New(fs)
		if err != nil {
			return StreamRow{}, obs.LatencyHist{}, err
		}
	}

	clk := workload.NewVirtualClock(workload.Epoch())
	cfg := serve.Config{
		Workers:          1,
		MaxBatch:         maxBatch,
		QueueCap:         st.Requests + maxBatch + 8,
		LingerMS:         simdrive.LingerMS,
		ManualFlush:      true,
		Clock:            clk.Now,
		Seed:             sp.Seed + int64(idx) + 1,
		RejectUnmeetable: true,
		Faults:           inj,
	}
	if inj != nil {
		// One bounded retry with a sub-wall-tick virtual backoff keeps the
		// recovery path exercised without wall-clock dependence; the
		// breaker stays off — its cooldown is wall-clock time.
		cfg.MaxRetries = 1
		cfg.RetryBaseMS = 0.05
	}
	srv, err := serve.NewServer(ex, task, cfg)
	if err != nil {
		return StreamRow{}, obs.LatencyHist{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), streamTimeout)
	defer cancel()
	defer srv.Close(ctx)

	rate := arrivalRate(st, task, ex, maxBatch)
	arr, arrivalKind := arrivalsFor(st, task, rate, sp.Seed+int64(idx+1)*7919)

	// Every arrival occupies a window slot whether admission accepts it or
	// not, and a refused one can open a window — the convention the
	// committed matrix was generated under (the fleet soak counts accepted
	// legs only).
	win := simdrive.NewWindow(srv, ex, clk, maxBatch)
	slot := make([]simdrive.Slot, 1)
	err = simdrive.Drive(ctx, clk, workload.NewScheduleStream([]workload.Arrivals{arr}, []int{st.Requests}),
		func(time.Time, workload.Event) ([]simdrive.Slot, error) {
			slot[0] = simdrive.Slot{Win: win}
			if f, err := srv.Submit(); err == nil {
				slot[0].Leg = f
			} // else refused (early rejection, injected saturation); tallied in the snapshot
			return slot, nil
		},
		func([]simdrive.Outcome) {}) // the server's own stats record every outcome
	if err != nil {
		return StreamRow{}, obs.LatencyHist{}, err
	}
	if err := srv.Close(ctx); err != nil {
		return StreamRow{}, obs.LatencyHist{}, err
	}
	snap := srv.Stats()
	counts := srv.FaultCounts()

	freq := 1.0
	if plan != nil && plan.FreqFrac > 0 {
		freq = plan.FreqFrac
	}
	srow := StreamRow{
		Task:            task.Name,
		Class:           task.Class.String(),
		Arrival:         arrivalKind,
		RateRPS:         rate,
		FreqFrac:        freq,
		CoRunTimeX:      factor.timeX,
		Requests:        st.Requests,
		Submitted:       snap.Submitted,
		Completed:       snap.Completed,
		Failed:          snap.Failed,
		Rejected:        snap.Rejected,
		Batches:         snap.Batches,
		MeanBatch:       snap.MeanBatch,
		P50MS:           snap.P50MS,
		P99MS:           snap.P99MS,
		MissRate:        snap.DeadlineMissRate,
		MeanSoC:         snap.MeanSoC,
		MeanEntropy:     snap.MeanEntropy,
		EnergyPerImageJ: snap.EnergyPerImageJ,
		Escalations:     snap.Escalations,
		Calibrations:    snap.Calibrations,
		Recoveries:      snap.Recoveries,
		Retries:         snap.Retries,
		FinalLevel:      snap.Level,
		Faults:          counts,
	}
	return srow, srv.Latencies(), nil
}

// RunMatrix runs every spec and assembles the matrix, one row per spec
// in spec order. The rows share no state but the engine's once-per-key
// caches, so they fan out with par.Each — at most GOMAXPROCS rows run at
// once — and the matrix is byte-identical to running the specs one by
// one; on failure the lowest-index spec's error is returned. progress,
// when non-nil, is called as each row starts with its index and name,
// possibly concurrently from several goroutines.
func (e *Engine) RunMatrix(specs []Spec, progress func(i int, name string)) (Matrix, error) {
	rows := make([]Row, len(specs))
	err := par.Each(len(specs), func(i int) error {
		if progress != nil {
			progress(i, specs[i].Name)
		}
		var err error
		rows[i], err = e.Run(specs[i])
		return err
	})
	if err != nil {
		return Matrix{}, err
	}
	return Matrix{Schema: MatrixSchema, Rows: rows}, nil
}
