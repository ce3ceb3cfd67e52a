package fleet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pcnn/internal/compile"
	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/satisfaction"
	"pcnn/internal/serve"
)

// Deployment is one model version's serving material: the task contract
// plus an executor compiled for every platform the fleet spans. A
// Deployment is immutable once registered (the registry copies the
// executor map), which is what makes hot-swap copy-on-write: replicas
// holding the old version keep serving it untouched while new routing
// resolves to the new one.
type Deployment struct {
	// Model is the registry key requests route by (e.g. "AlexNet").
	Model string
	// Version is assigned by the registry: 1 on first Register, previous+1
	// on every Swap.
	Version int
	// Task is the archetype contract every replica serves this model under.
	Task satisfaction.Task
	// executors maps platform name → compiled executor.
	executors map[string]serve.Executor
}

// Executor returns the deployment's executor for a platform, or nil.
func (d *Deployment) Executor(platform string) serve.Executor {
	if d == nil {
		return nil
	}
	return d.executors[platform]
}

// Platforms returns the sorted platform names the deployment compiles for.
func (d *Deployment) Platforms() []string {
	ps := make([]string, 0, len(d.executors))
	for p := range d.executors {
		ps = append(ps, p)
	}
	sort.Strings(ps)
	return ps
}

// NewDeployment assembles a deployment from per-platform executors. The
// map is copied.
func NewDeployment(model string, task satisfaction.Task, executors map[string]serve.Executor) (*Deployment, error) {
	if model == "" {
		return nil, fmt.Errorf("fleet: deployment needs a model name")
	}
	if err := task.Validate(); err != nil {
		return nil, err
	}
	if len(executors) == 0 {
		return nil, fmt.Errorf("fleet: deployment %s has no executors", model)
	}
	ex := make(map[string]serve.Executor, len(executors))
	for p, e := range executors {
		if e == nil {
			return nil, fmt.Errorf("fleet: deployment %s has nil executor for %s", model, p)
		}
		ex[p] = e
	}
	return &Deployment{Model: model, Task: task, executors: ex}, nil
}

// CompileDeployment compiles a model for a task on every named platform
// and wraps each plan in a PlanExecutor — the production path from "we
// trained a network" to "the fleet can serve it". dvfs additionally
// applies the DVFS frequency ladder to each plan (a genuinely different
// compilation), which is how the soak produces a distinguishable v2 to
// hot-swap in.
func CompileDeployment(model string, task satisfaction.Task, platforms []string, dvfs bool) (*Deployment, error) {
	executors, err := compileExecutors(model, task, platforms, dvfs)
	if err != nil {
		return nil, err
	}
	return NewDeployment(model, task, executors)
}

// Recompile compiles the deployment afresh on every platform, applying
// the DVFS frequency ladder when dvfs is set, into a new unregistered
// deployment. Each executor keeps its degradation path and trained
// network (serve.PlanExecutor.Recompile), so a tuned deployment stays
// tuned across POST /swap.
func (d *Deployment) Recompile(dvfs bool) (*Deployment, error) {
	executors := make(map[string]serve.Executor, len(d.executors))
	for _, p := range d.Platforms() {
		ex, ok := d.executors[p].(*serve.PlanExecutor)
		if !ok {
			return nil, fmt.Errorf("fleet: model %q on %s has no compiled plan to recompile", d.Model, p)
		}
		next, err := ex.Recompile(dvfs)
		if err != nil {
			return nil, fmt.Errorf("fleet: recompile %s on %s: %w", d.Model, p, err)
		}
		executors[p] = next
	}
	return NewDeployment(d.Model, d.Task, executors)
}

// compileExecutors builds the per-platform executor map CompileDeployment
// wraps.
func compileExecutors(model string, task satisfaction.Task, platforms []string, dvfs bool) (map[string]serve.Executor, error) {
	net := nn.NetShapeByName(model)
	if net == nil {
		return nil, fmt.Errorf("fleet: unknown network %q", model)
	}
	executors := make(map[string]serve.Executor, len(platforms))
	for _, p := range platforms {
		if _, ok := executors[p]; ok {
			continue
		}
		ex, err := compileExecutor(net, task, p, dvfs)
		if err != nil {
			return nil, err
		}
		executors[p] = ex
	}
	return executors, nil
}

// compileExecutor compiles net for task on one platform, applying the
// DVFS frequency ladder when dvfs is set, and wraps the plan in a
// PlanExecutor. The soak shares each executor across its grid rows
// (executors are concurrency-safe and answer independently of call
// order) while registering a fresh Deployment per row.
func compileExecutor(net *nn.NetShape, task satisfaction.Task, platform string, dvfs bool) (serve.Executor, error) {
	dev := gpu.PlatformByName(platform)
	if dev == nil {
		return nil, fmt.Errorf("fleet: unknown platform %q", platform)
	}
	plan, err := compile.Compile(net, dev, task)
	if err != nil {
		return nil, fmt.Errorf("fleet: compile %s on %s: %w", net.Name, platform, err)
	}
	if dvfs {
		if _, err := plan.ApplyDVFS(); err != nil {
			return nil, fmt.Errorf("fleet: DVFS %s on %s: %w", net.Name, platform, err)
		}
	}
	return serve.NewPlanExecutor(plan, nil, nil, nil)
}

// Registry is the fleet-wide model/plan store: every model's current
// deployment, versioned. Swap installs a new version atomically — lookups
// after Swap resolve to the new deployment while in-flight requests keep
// draining on the old one — giving zero-downtime hot-swap of compiled
// plans and tuned tiles.
type Registry struct {
	mu     sync.RWMutex
	models map[string]*Deployment
	swaps  atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{models: map[string]*Deployment{}} }

// Register installs a model's first deployment (version 1). Registering a
// model that already exists is an error; use Swap to replace a version.
func (r *Registry) Register(d *Deployment) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[d.Model]; ok {
		return fmt.Errorf("fleet: model %s already registered (use Swap)", d.Model)
	}
	d.Version = 1
	r.models[d.Model] = d
	return nil
}

// Swap replaces a model's current deployment with a new version
// (previous+1) and returns the retired one. The swap is the atomic
// pointer flip; draining the retired version is the replicas' job (they
// notice the version change on the next request routed to them).
func (r *Registry) Swap(d *Deployment) (*Deployment, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.models[d.Model]
	if !ok {
		return nil, fmt.Errorf("fleet: model %s not registered", d.Model)
	}
	d.Version = old.Version + 1
	r.models[d.Model] = d
	r.swaps.Add(1)
	return old, nil
}

// Current returns the model's current deployment, or nil.
func (r *Registry) Current(model string) *Deployment {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.models[model]
}

// Models returns the registered model names, sorted.
func (r *Registry) Models() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ms := make([]string, 0, len(r.models))
	for m := range r.models {
		ms = append(ms, m)
	}
	sort.Strings(ms)
	return ms
}

// Swaps returns how many hot-swaps the registry has performed.
func (r *Registry) Swaps() uint64 { return r.swaps.Load() }
