// Package fleet is the distributed serving tier: it load-balances
// inference across N serve.Server replicas on heterogeneous GPU
// platforms. Routing rides a consistent-hash ring whose virtual-node
// counts are weighted by each replica's Eq 12 predicted capacity;
// unhealthy replicas (breaker-open, closed) are ejected from the ring by
// health checks and readmitted after a cooldown; requests whose primary
// replica predicts a deadline miss hedge a second leg onto the best
// fallback; and every model's compiled plan lives in a versioned
// copy-on-write registry supporting zero-downtime hot-swap.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"pcnn/internal/obs"
	"pcnn/internal/serve"
)

// ErrNoReplicas is returned by Submit when the fleet has no replicas at
// all (ejection never empties routing: an all-ejected fleet routes as if
// none were ejected, leaving load-shedding to per-server admission).
var ErrNoReplicas = errors.New("fleet: no replicas")

// Policy selects how fallback replicas are ordered after the ring owner.
type Policy int

const (
	// PolicyRing walks the consistent-hash ring: deterministic per-key
	// fallback order, minimal key movement on membership change.
	PolicyRing Policy = iota
	// PolicyLeastSlack keeps the ring owner primary but orders fallbacks
	// by predicted completion time, cheapest first — load-aware spill.
	PolicyLeastSlack
)

// String names the policy for snapshots.
func (p Policy) String() string {
	if p == PolicyLeastSlack {
		return "least-slack"
	}
	return "ring"
}

// Config tunes the fleet router. The zero value picks sensible defaults.
type Config struct {
	// Policy orders fallback candidates (default PolicyRing).
	Policy Policy
	// Hedge enables hedged requests: when the primary's predicted
	// completion already overruns the task deadline at submit time, a
	// second leg is submitted to the best fallback and the faster
	// successful leg wins. Off by default.
	Hedge bool
	// ReadmitAfterMS is how long an ejected replica stays out before a
	// passing health probe readmits it. 0 means 1000.
	ReadmitAfterMS float64
	// Clock injects the time source ejection cooldowns are measured on;
	// nil means time.Now. Virtual-clock drivers inject the same clock
	// they drive the servers with.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.ReadmitAfterMS <= 0 {
		c.ReadmitAfterMS = 1000
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Fleet routes requests across replicas. All methods are safe for
// concurrent use.
type Fleet struct {
	cfg Config
	reg *Registry

	mu       sync.Mutex
	replicas []Replica      // registration order — the deterministic iteration order
	byID     map[string]int // id → replicas index
	ejected  map[string]time.Time
	rings    map[string]*Ring // per-model, rebuilt lazily on generation change
	ringGen  uint64           // bumped on membership change
	builtGen uint64
	builtSwp uint64 // registry swap count the rings were built at

	// counters are exported as pcnn_fleet_* and reported in Snapshot.
	requests     uint64
	fallbacks    uint64
	hedges       uint64
	hedgeWins    uint64
	ejections    uint64
	readmissions uint64

	obsReg *obs.Registry
}

// New assembles a fleet over a shared model registry.
func New(reg *Registry, cfg Config) *Fleet {
	f := &Fleet{
		cfg:     cfg.withDefaults(),
		reg:     reg,
		byID:    map[string]int{},
		ejected: map[string]time.Time{},
		rings:   map[string]*Ring{},
		obsReg:  obs.NewRegistry(),
	}
	f.registerMetrics()
	return f
}

// Registry returns the fleet's shared model registry.
func (f *Fleet) Registry() *Registry { return f.reg }

// AddReplica joins a replica to the fleet. Duplicate IDs are an error.
func (f *Fleet) AddReplica(r Replica) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.byID[r.ID()]; ok {
		return fmt.Errorf("fleet: replica %s already joined", r.ID())
	}
	f.byID[r.ID()] = len(f.replicas)
	f.replicas = append(f.replicas, r)
	f.ringGen++
	return nil
}

// activeLocked returns the replicas currently taking traffic, in
// registration order. An all-ejected fleet falls back to every replica:
// degraded serving beats a dead endpoint, and per-server admission sheds
// what really cannot be served.
func (f *Fleet) activeLocked() []Replica {
	act := make([]Replica, 0, len(f.replicas))
	for _, r := range f.replicas {
		if _, out := f.ejected[r.ID()]; !out {
			act = append(act, r)
		}
	}
	if len(act) == 0 {
		return f.replicas
	}
	return act
}

// ringFor returns the model's routing ring, rebuilding every ring when
// membership or the registry changed since the last build. Weights are
// each active replica's Eq 12 predicted capacity for the model.
func (f *Fleet) ringFor(model string) (*Ring, []Replica) {
	f.mu.Lock()
	swaps := f.reg.Swaps()
	if f.builtGen != f.ringGen || f.builtSwp != swaps || f.rings[model] == nil {
		if f.builtGen != f.ringGen || f.builtSwp != swaps {
			f.rings = map[string]*Ring{}
			f.builtGen = f.ringGen
			f.builtSwp = swaps
		}
		act := f.activeLocked()
		f.mu.Unlock()
		// Capacity probes build servers; do not hold the fleet lock.
		entries := make([]RingEntry, 0, len(act))
		for _, r := range act {
			entries = append(entries, RingEntry{ID: r.ID(), Weight: r.CapacityRPS(model)})
		}
		ring := NewRing(entries)
		f.mu.Lock()
		f.rings[model] = ring
	}
	ring := f.rings[model]
	act := f.activeLocked()
	f.mu.Unlock()
	return ring, act
}

// replica resolves an ID against the active set.
func replicaByID(act []Replica, id string) Replica {
	for _, r := range act {
		if r.ID() == id {
			return r
		}
	}
	return nil
}

// FleetFuture resolves a routed (possibly hedged) request. Wait may be
// called once per future; the underlying tickets memoize, so a soak
// driver may also Wait the legs directly.
type FleetFuture struct {
	fleet  *Fleet
	legs   []*Ticket
	hedged bool
}

// Legs exposes the submitted request legs (primary first) for drivers
// that manage batch execution themselves.
func (ff *FleetFuture) Legs() []*Ticket { return ff.legs }

// Wait resolves every leg and returns the winner: the successful leg
// with the smallest response time (deterministic even when legs resolve
// out of order). The loser is cooperatively cancelled — batched
// execution cannot be revoked, so its outcome is simply discarded. When
// every leg fails, the primary's error is returned.
func (ff *FleetFuture) Wait(ctx context.Context) (serve.Result, string, error) {
	type leg struct {
		t   *Ticket
		res serve.Result
		err error
	}
	legs := make([]leg, 0, len(ff.legs))
	for _, t := range ff.legs {
		res, err := t.Wait(ctx)
		legs = append(legs, leg{t: t, res: res, err: err})
	}
	win := -1
	for i, l := range legs {
		if l.err != nil {
			continue
		}
		if win < 0 || l.res.ResponseMS < legs[win].res.ResponseMS {
			win = i
		}
	}
	if win < 0 {
		return serve.Result{}, ff.legs[0].Replica(), legs[0].err
	}
	if ff.hedged && win > 0 {
		ff.fleet.mu.Lock()
		ff.fleet.hedgeWins++
		ff.fleet.mu.Unlock()
	}
	return legs[win].res, legs[win].t.Replica(), nil
}

// candidates returns the active replicas to try for (model, key), ring
// owner first. Under PolicyLeastSlack the fallbacks behind the owner are
// re-ordered by predicted completion time, cheapest first.
func (f *Fleet) candidates(model, key string) []Replica {
	ring, act := f.ringFor(model)
	order := ring.Order(model+"|"+key, 0)
	cands := make([]Replica, 0, len(order))
	for _, id := range order {
		if r := replicaByID(act, id); r != nil {
			cands = append(cands, r)
		}
	}
	if f.cfg.Policy == PolicyLeastSlack && len(cands) > 2 {
		rest := cands[1:]
		pred := make([]float64, len(rest))
		for i, r := range rest {
			pred[i] = r.PredictCompletionMS(model)
			// 0 means the replica cannot predict (stale remote cache,
			// unservable model): order it behind every live prediction
			// rather than letting "unknown" masquerade as "idle".
			if pred[i] <= 0 {
				pred[i] = math.Inf(1)
			}
		}
		sort.SliceStable(rest, func(i, j int) bool { return pred[i] < pred[j] })
	}
	return cands
}

// Submit routes one request for a model. key identifies the routing
// affinity (client ID, session, shard) — the ring maps (model, key) to a
// stable primary so a client's requests land on the same replica while
// membership holds. Fallback replicas absorb the request when the
// primary refuses admission; a hedge leg rides along when the primary
// predicts a deadline miss at submit time.
func (f *Fleet) Submit(model, key string) (*FleetFuture, error) {
	dep := f.reg.Current(model)
	if dep == nil {
		return nil, fmt.Errorf("fleet: model %q not in registry", model)
	}
	cands := f.candidates(model, key)
	if len(cands) == 0 {
		return nil, ErrNoReplicas
	}
	f.mu.Lock()
	f.requests++
	f.mu.Unlock()

	// Hedge decision happens before admission: the primary's predicted
	// completion (queue ahead + own execution) against the task deadline.
	task := dep.Task
	primaryPred := cands[0].PredictCompletionMS(model)

	var legs []*Ticket
	primaryIdx := -1
	var refusal error
	for i, r := range cands {
		t, err := r.Submit(model)
		if err != nil {
			refusal = err
			continue
		}
		legs = append(legs, t)
		primaryIdx = i
		break
	}
	if len(legs) == 0 {
		// The last refusal rides along so callers can tell shed load
		// (serve.ErrQueueFull, serve.ErrDeadlineUnmeetable) from a fault.
		return nil, fmt.Errorf("fleet: every replica refused %s/%s: %w", model, key, refusal)
	}
	if primaryIdx > 0 {
		f.mu.Lock()
		f.fallbacks++
		f.mu.Unlock()
	}

	hedged := false
	if f.cfg.Hedge && primaryIdx == 0 && len(cands) > 1 &&
		task.SlackMS(0, primaryPred) < 0 {
		for _, r := range cands[1:] {
			t, err := r.Submit(model)
			if err != nil {
				continue
			}
			legs = append(legs, t)
			hedged = true
			f.mu.Lock()
			f.hedges++
			f.mu.Unlock()
			break
		}
	}
	return &FleetFuture{fleet: f, legs: legs, hedged: hedged}, nil
}

// CheckHealth probes every replica once: active replicas that report
// unhealthy are ejected from the ring; ejected replicas are readmitted
// once their cooldown elapsed. Readmission is optimistic — an ejected
// replica gets no traffic, so its open breaker can never run the
// half-open probe that would clear it; readmitting hands it real traffic
// again, and if it is still broken the breaker re-opens and the next
// sweep re-ejects it. Call CheckHealth periodically (live serving) or at
// deterministic points (virtual-clock drivers). Returns how many
// replicas this sweep ejected and readmitted.
func (f *Fleet) CheckHealth() (ejected, readmitted int) {
	f.mu.Lock()
	replicas := append([]Replica(nil), f.replicas...)
	f.mu.Unlock()

	healthy := make(map[string]bool, len(replicas))
	for _, r := range replicas {
		ok, _ := r.Healthy()
		healthy[r.ID()] = ok
	}

	now := f.cfg.Clock()
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range replicas {
		id := r.ID()
		at, out := f.ejected[id]
		switch {
		case !out && !healthy[id]:
			f.ejected[id] = now
			f.ejections++
			f.ringGen++
			ejected++
		case out && float64(now.Sub(at))/float64(time.Millisecond) >= f.cfg.ReadmitAfterMS:
			delete(f.ejected, id)
			f.readmissions++
			f.ringGen++
			readmitted++
		}
	}
	return ejected, readmitted
}

// Swap installs a new deployment version in the registry and returns the
// retired one. Routing resolves to the new version on the next request
// per node; nodes park their replaced servers for draining (see
// Node.TakeRetired and DrainRetired).
func (f *Fleet) Swap(d *Deployment) (*Deployment, error) {
	return f.reg.Swap(d)
}

// DrainRetired collects every local node's swap-retired servers, drains
// them (Close resolves all in-flight futures) and returns how many
// servers were drained. Live fleets call it after Swap; virtual-clock
// drivers drain retired servers themselves for exact accounting.
func (f *Fleet) DrainRetired(ctx context.Context) (int, error) {
	f.mu.Lock()
	replicas := append([]Replica(nil), f.replicas...)
	f.mu.Unlock()
	n := 0
	var first error
	for _, r := range replicas {
		node, ok := r.(*Node)
		if !ok {
			continue
		}
		for _, srv := range node.TakeRetired() {
			n++
			if err := srv.Close(ctx); err != nil && first == nil {
				first = err
			}
		}
	}
	return n, first
}

// Close drains and stops every replica.
func (f *Fleet) Close(ctx context.Context) error {
	f.mu.Lock()
	replicas := append([]Replica(nil), f.replicas...)
	f.mu.Unlock()
	var first error
	for _, r := range replicas {
		if err := r.Close(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ReplicaStatus is one replica's row in the fleet snapshot.
type ReplicaStatus struct {
	ID       string `json:"id"`
	Platform string `json:"platform"`
	Healthy  bool   `json:"healthy"`
	Ejected  bool   `json:"ejected"`
	// Reasons lists the degradation reasons when unhealthy.
	Reasons []string `json:"reasons,omitempty"`
	// Models maps each model the replica serves to its serve snapshot.
	Models map[string]serve.Snapshot `json:"models,omitempty"`
	// Versions maps each model to the deployment version served.
	Versions map[string]int `json:"versions,omitempty"`
}

// ModelStatus is one registered model's row in the fleet snapshot.
type ModelStatus struct {
	Model   string `json:"model"`
	Version int    `json:"version"`
	Task    string `json:"task"`
}

// FleetSnapshot is the GET /fleet view: membership, health, per-replica
// serving stats and the routing counters.
type FleetSnapshot struct {
	Policy       string          `json:"policy"`
	Hedge        bool            `json:"hedge"`
	Replicas     []ReplicaStatus `json:"replicas"`
	Models       []ModelStatus   `json:"models"`
	Requests     uint64          `json:"requests"`
	Fallbacks    uint64          `json:"fallbacks"`
	Hedges       uint64          `json:"hedges"`
	HedgeWins    uint64          `json:"hedge_wins"`
	Ejections    uint64          `json:"ejections"`
	Readmissions uint64          `json:"readmissions"`
	Swaps        uint64          `json:"swaps"`
}

// Snapshot assembles the fleet-wide status view.
func (f *Fleet) Snapshot() FleetSnapshot {
	f.mu.Lock()
	replicas := append([]Replica(nil), f.replicas...)
	ejected := make(map[string]bool, len(f.ejected))
	for id := range f.ejected {
		ejected[id] = true
	}
	snap := FleetSnapshot{
		Policy:       f.cfg.Policy.String(),
		Hedge:        f.cfg.Hedge,
		Requests:     f.requests,
		Fallbacks:    f.fallbacks,
		Hedges:       f.hedges,
		HedgeWins:    f.hedgeWins,
		Ejections:    f.ejections,
		Readmissions: f.readmissions,
		Swaps:        f.reg.Swaps(),
	}
	f.mu.Unlock()

	for _, r := range replicas {
		ok, reasons := r.Healthy()
		rs := ReplicaStatus{
			ID:       r.ID(),
			Platform: r.Platform(),
			Healthy:  ok,
			Ejected:  ejected[r.ID()],
			Reasons:  reasons,
		}
		if node, isNode := r.(*Node); isNode {
			for _, m := range node.Models() {
				if st, served := node.Stats(m); served {
					if rs.Models == nil {
						rs.Models = map[string]serve.Snapshot{}
						rs.Versions = map[string]int{}
					}
					rs.Models[m] = st
					rs.Versions[m] = node.Version(m)
				}
			}
		}
		snap.Replicas = append(snap.Replicas, rs)
	}
	for _, m := range f.reg.Models() {
		d := f.reg.Current(m)
		snap.Models = append(snap.Models, ModelStatus{Model: m, Version: d.Version, Task: d.Task.Name})
	}
	return snap
}

// registerMetrics exports the routing counters and membership gauges.
func (f *Fleet) registerMetrics() {
	read := func(get func(*Fleet) float64) func() float64 {
		return func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return get(f)
		}
	}
	f.obsReg.GaugeFunc("pcnn_fleet_replicas",
		"Replicas joined to the fleet.",
		read(func(f *Fleet) float64 { return float64(len(f.replicas)) }))
	f.obsReg.GaugeFunc("pcnn_fleet_ejected",
		"Replicas currently ejected from routing.",
		read(func(f *Fleet) float64 { return float64(len(f.ejected)) }))
	f.obsReg.CounterFunc("pcnn_fleet_requests_total",
		"Requests routed by the fleet.",
		read(func(f *Fleet) float64 { return float64(f.requests) }))
	f.obsReg.CounterFunc("pcnn_fleet_fallbacks_total",
		"Requests served by a fallback after the primary refused admission.",
		read(func(f *Fleet) float64 { return float64(f.fallbacks) }))
	f.obsReg.CounterFunc("pcnn_fleet_hedges_total",
		"Hedge legs submitted on predicted deadline misses.",
		read(func(f *Fleet) float64 { return float64(f.hedges) }))
	f.obsReg.CounterFunc("pcnn_fleet_hedge_wins_total",
		"Hedged requests whose hedge leg beat the primary.",
		read(func(f *Fleet) float64 { return float64(f.hedgeWins) }))
	f.obsReg.CounterFunc("pcnn_fleet_ejections_total",
		"Health-check ejections from the routing ring.",
		read(func(f *Fleet) float64 { return float64(f.ejections) }))
	f.obsReg.CounterFunc("pcnn_fleet_readmissions_total",
		"Cooldown readmissions into the routing ring.",
		read(func(f *Fleet) float64 { return float64(f.readmissions) }))
	f.obsReg.CounterFunc("pcnn_fleet_swaps_total",
		"Deployment hot-swaps performed by the registry.",
		func() float64 { return float64(f.reg.Swaps()) })
}

// Metrics returns the fleet's own metric registry (the pcnn_fleet_*
// family); per-replica serve metrics are merged by WriteMetrics.
func (f *Fleet) Metrics() *obs.Registry { return f.obsReg }

// WriteMetrics renders the merged Prometheus exposition: the fleet
// counters plus every local replica's full pcnn_serve_* metric set,
// each stamped with replica/platform/model labels.
func (f *Fleet) WriteMetrics(w io.Writer) error {
	f.mu.Lock()
	replicas := append([]Replica(nil), f.replicas...)
	f.mu.Unlock()
	exp := obs.NewExposition().Add(f.obsReg)
	for _, r := range replicas {
		node, ok := r.(*Node)
		if !ok {
			mergeReplicaMetrics(exp, r)
			continue
		}
		node.mu.Lock()
		models := make([]string, 0, len(node.servers))
		for m := range node.servers {
			models = append(models, m)
		}
		sort.Strings(models)
		srvs := make(map[string]*serve.Server, len(models))
		for _, m := range models {
			srvs[m] = node.servers[m].srv
		}
		node.mu.Unlock()
		for _, m := range models {
			exp.Add(srvs[m].Metrics(),
				obs.Label{Key: "replica", Value: node.id},
				obs.Label{Key: "platform", Value: node.platform},
				obs.Label{Key: "model", Value: m})
		}
	}
	return exp.WritePrometheus(w)
}
