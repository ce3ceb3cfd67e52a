package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"pcnn/internal/fault"
	"pcnn/internal/obs"
	"pcnn/internal/serve"
)

// Ticket is one submitted request leg. Unlike serve.Future — whose Wait
// may be called once — a Ticket memoizes its outcome, so both the fleet
// future (picking the hedge winner) and a deterministic soak driver
// (accounting execution time) can Wait on the same leg.
type Ticket struct {
	replica string
	model   string
	version int
	srv     *serve.Server // nil for remote legs

	wait func(ctx context.Context) (serve.Result, error)
	once sync.Once
	res  serve.Result
	err  error
}

// Wait blocks until the leg resolves (or ctx expires on the first call —
// the first outcome, whatever it is, is what every later Wait returns).
func (t *Ticket) Wait(ctx context.Context) (serve.Result, error) {
	t.once.Do(func() { t.res, t.err = t.wait(ctx) })
	return t.res, t.err
}

// Replica names the leg's serving replica.
func (t *Ticket) Replica() string { return t.replica }

// Model names the deployment the leg was served under.
func (t *Ticket) Model() string { return t.model }

// Version is the deployment version the leg was served under.
func (t *Ticket) Version() int { return t.version }

// Server exposes the in-process server the leg landed on (nil for remote
// legs). ManualFlush soak drivers use it to compose batch windows.
func (t *Ticket) Server() *serve.Server { return t.srv }

// Replica is one serving target the fleet routes to: a heterogeneous
// platform running one serve.Server per registered model.
type Replica interface {
	// ID is the replica's stable routing identity (its ring position).
	ID() string
	// Platform names the GPU microarchitecture the replica serves on.
	Platform() string
	// Submit routes one request for a model to the replica.
	Submit(model string) (*Ticket, error)
	// PredictCompletionMS is the Eq 12 estimate of a request's completion
	// time if submitted now — queue ahead plus own execution. Replicas
	// that cannot predict (remote ones) return 0.
	PredictCompletionMS(model string) float64
	// CapacityRPS is the replica's predicted steady-state serving rate for
	// a model — the ring weight. 0 means unknown (mean weight).
	CapacityRPS(model string) float64
	// Healthy reports whether the replica should receive traffic, with the
	// degradation reasons when it should not.
	Healthy() (bool, []string)
	// Stats returns the replica's serving snapshot for a model, false when
	// unavailable (model never served there, or remote).
	Stats(model string) (serve.Snapshot, bool)
	// Close drains and stops the replica.
	Close(ctx context.Context) error
}

// NodeConfig shapes the serve.Servers a local node builds.
type NodeConfig struct {
	// Serve is the per-model server template. MaxBatch 0 uses each model's
	// compiled batch; Seed is folded with the node/model/version identity
	// so every server draws an independent deterministic jitter stream.
	Serve serve.Config
	// Faults optionally attaches one chaos injector to every server the
	// node builds (breaker-storm tests aim it at a single node).
	Faults *fault.Injector
}

// modelServer is one model's current in-process server and the registry
// version it was built from.
type modelServer struct {
	srv     *serve.Server
	version int
}

// Node is an in-process replica: one serve.Server per model, built
// lazily from the shared registry and rebuilt — copy-on-write — when the
// registry swaps a newer deployment version in. The replaced server moves
// to the retired list still holding its in-flight requests; the fleet (or
// soak driver) drains and closes it, which is what makes hot-swap
// zero-downtime.
type Node struct {
	id       string
	platform string
	reg      *Registry
	cfg      NodeConfig

	mu      sync.Mutex
	servers map[string]*modelServer
	retired []*serve.Server
	closed  bool
}

// NewNode builds a replica identity on a platform, serving whatever the
// registry holds.
func NewNode(id, platform string, reg *Registry, cfg NodeConfig) *Node {
	return &Node{id: id, platform: platform, reg: reg, cfg: cfg, servers: map[string]*modelServer{}}
}

// ID returns the node's routing identity.
func (n *Node) ID() string { return n.id }

// Platform returns the node's GPU platform name.
func (n *Node) Platform() string { return n.platform }

// Server returns the node's current server for a model, building (or
// version-upgrading) it from the registry first. The error is permanent
// for the current registry state: unknown model, or a deployment not
// compiled for this node's platform.
func (n *Node) Server(model string) (*serve.Server, int, error) {
	d := n.reg.Current(model)
	if d == nil {
		return nil, 0, fmt.Errorf("fleet: model %q not in registry", model)
	}
	ex := d.Executor(n.platform)
	if ex == nil {
		return nil, 0, fmt.Errorf("fleet: model %s not compiled for platform %s", model, n.platform)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, 0, fmt.Errorf("fleet: node %s closed", n.id)
	}
	ms := n.servers[model]
	if ms != nil && ms.version == d.Version {
		return ms.srv, ms.version, nil
	}
	cfg := n.cfg.Serve
	cfg.Seed = int64(hash64(n.id+"|"+model+"|v"+strconv.Itoa(d.Version)+"|"+strconv.FormatInt(cfg.Seed, 10)) % (1 << 31))
	cfg.Faults = n.cfg.Faults
	srv, err := serve.NewServer(ex, d.Task, cfg)
	if err != nil {
		return nil, 0, err
	}
	if ms != nil {
		n.retired = append(n.retired, ms.srv)
	}
	n.servers[model] = &modelServer{srv: srv, version: d.Version}
	return srv, d.Version, nil
}

// Submit routes one request for a model to the node's current server.
func (n *Node) Submit(model string) (*Ticket, error) {
	srv, version, err := n.Server(model)
	if err != nil {
		return nil, err
	}
	fut, err := srv.Submit()
	if err != nil {
		return nil, err
	}
	return &Ticket{
		replica: n.id,
		model:   model,
		version: version,
		srv:     srv,
		wait:    fut.Wait,
	}, nil
}

// PredictCompletionMS estimates a request's completion time on the
// node's current server for a model (0 when the model cannot be served
// here).
func (n *Node) PredictCompletionMS(model string) float64 {
	srv, _, err := n.Server(model)
	if err != nil {
		return 0
	}
	return srv.PredictCompletionMS()
}

// CapacityRPS is the node's Eq 12 predicted serving rate for a model —
// its consistent-hash ring weight.
func (n *Node) CapacityRPS(model string) float64 {
	srv, _, err := n.Server(model)
	if err != nil {
		return 0
	}
	return srv.CapacityRPS()
}

// Healthy aggregates the node's per-model server health: the node takes
// traffic only while every server it runs is neither closed nor
// breaker-open (the GPU is the failure domain — one executor's launch
// failures predict the others').
func (n *Node) Healthy() (bool, []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false, []string{"node closed"}
	}
	var reasons []string
	models := make([]string, 0, len(n.servers))
	for m := range n.servers {
		models = append(models, m)
	}
	sort.Strings(models)
	for _, m := range models {
		h := n.servers[m].srv.Health()
		if h.Status == "closed" || h.Breaker == "open" {
			for _, r := range h.Reasons {
				reasons = append(reasons, m+": "+r)
			}
		}
	}
	return len(reasons) == 0, reasons
}

// Stats returns the node's serving snapshot for a model (false when the
// model never served here).
func (n *Node) Stats(model string) (serve.Snapshot, bool) {
	n.mu.Lock()
	ms := n.servers[model]
	n.mu.Unlock()
	if ms == nil {
		return serve.Snapshot{}, false
	}
	return ms.srv.Stats(), true
}

// Models returns the models the node has built servers for, sorted.
func (n *Node) Models() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	ms := make([]string, 0, len(n.servers))
	for m := range n.servers {
		ms = append(ms, m)
	}
	sort.Strings(ms)
	return ms
}

// Version returns the deployment version the node currently serves for a
// model (0 when it never built one).
func (n *Node) Version(model string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ms := n.servers[model]; ms != nil {
		return ms.version
	}
	return 0
}

// TakeRetired removes and returns servers replaced by hot-swaps since the
// last call. Each still holds the in-flight requests it had at swap time;
// the caller drains them (Flush + Wait the legs) and Closes.
func (n *Node) TakeRetired() []*serve.Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	r := n.retired
	n.retired = nil
	return r
}

// Close drains and stops every server the node built, retired ones
// included. The first error wins but every server is closed.
func (n *Node) Close(ctx context.Context) error {
	n.mu.Lock()
	n.closed = true
	var all []*serve.Server
	for _, ms := range n.servers {
		all = append(all, ms.srv)
	}
	all = append(all, n.retired...)
	n.retired = nil
	n.mu.Unlock()
	var first error
	for _, srv := range all {
		if err := srv.Close(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// HTTPReplica routes to an out-of-process pcnnd daemon over its /infer
// endpoint. Eq 12 predictions cross the wire through the daemon's GET
// /predict payload, cached with bounded staleness and refreshed
// single-flight, so remote replicas participate in least-slack ordering,
// hedging and capacity-weighted ring placement exactly like in-process
// nodes. A replica whose cache is stale and unrefreshable predicts 0
// ("unknown"), which sorts it behind every replica with a live
// prediction (see Fleet.Submit).
type HTTPReplica struct {
	id       string
	platform string
	baseURL  string
	weight   float64
	client   *http.Client
	cfg      HTTPReplicaConfig

	mu    sync.Mutex
	cache map[string]*predEntry // model → cached /predict payload

	wireMS *obs.EWMA // EWMA round-trip of /predict polls
	obsReg *obs.Registry
	// wire/staleness counters, exported via Metrics.
	refreshes   uint64
	refreshErrs uint64
	staleReads  uint64
}

// predEntry is one model's cached remote prediction plus the
// single-flight refresh gate.
type predEntry struct {
	pred ModelPrediction
	at   time.Time
	ok   bool          // pred is a decoded payload, not a zero placeholder
	busy chan struct{} // non-nil while a refresh is in flight; closed when done
}

// HTTPReplicaConfig tunes a remote replica.
type HTTPReplicaConfig struct {
	// Weight is the static fallback ring weight in requests/second, used
	// until (or unless) live capacity arrives over the wire. 0 = mean.
	Weight float64
	// FreshnessMS bounds prediction staleness: cached payloads older than
	// this are refreshed before use, and unrefreshable ones read as
	// unknown (0). 0 means 250.
	FreshnessMS float64
	// Client is the HTTP client; nil uses http.DefaultClient.
	Client *http.Client
	// Clock injects the staleness time source; nil means time.Now.
	// Virtual-clock tests inject the clock they advance.
	Clock func() time.Time
}

func (c HTTPReplicaConfig) withDefaults() HTTPReplicaConfig {
	if c.FreshnessMS <= 0 {
		c.FreshnessMS = 250
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// NewHTTPReplicaConfig points a replica identity at a daemon's base URL
// (e.g. "http://10.0.0.7:8080") under cfg: static ring weight, HTTP
// client, staleness bound, injected clock.
func NewHTTPReplicaConfig(id, platform, baseURL string, cfg HTTPReplicaConfig) *HTTPReplica {
	cfg = cfg.withDefaults()
	h := &HTTPReplica{
		id:       id,
		platform: platform,
		baseURL:  baseURL,
		weight:   cfg.Weight,
		client:   cfg.Client,
		cfg:      cfg,
		cache:    map[string]*predEntry{},
		wireMS:   obs.NewEWMA(0.2),
		obsReg:   obs.NewRegistry(),
	}
	h.registerMetrics()
	return h
}

// registerMetrics exports the wire-latency and staleness counters merged
// into the fleet exposition under replica/platform labels.
func (h *HTTPReplica) registerMetrics() {
	h.obsReg.GaugeFunc("pcnn_fleet_wire_latency_ms",
		"EWMA round-trip latency of /predict polls to the remote daemon.",
		h.wireMS.Value)
	read := func(get func(*HTTPReplica) uint64) func() float64 {
		return func() float64 {
			h.mu.Lock()
			defer h.mu.Unlock()
			return float64(get(h))
		}
	}
	h.obsReg.CounterFunc("pcnn_fleet_predict_refreshes_total",
		"Remote prediction cache refreshes attempted.",
		read(func(h *HTTPReplica) uint64 { return h.refreshes }))
	h.obsReg.CounterFunc("pcnn_fleet_predict_refresh_failures_total",
		"Remote prediction refreshes that failed (network or decode).",
		read(func(h *HTTPReplica) uint64 { return h.refreshErrs }))
	h.obsReg.CounterFunc("pcnn_fleet_predict_stale_total",
		"Prediction reads answered as unknown because the cache was stale "+
			"and unrefreshable.",
		read(func(h *HTTPReplica) uint64 { return h.staleReads }))
}

// Metrics returns the replica's wire/staleness metric registry;
// Fleet.WriteMetrics merges it under replica labels.
func (h *HTTPReplica) Metrics() *obs.Registry { return h.obsReg }

// fetchPredict polls the daemon's /predict for one model and records the
// wire round-trip.
func (h *HTTPReplica) fetchPredict(model string) (ModelPrediction, error) {
	start := time.Now()
	resp, err := h.client.Get(h.baseURL + "/predict?model=" + model)
	if err != nil {
		return ModelPrediction{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ModelPrediction{}, fmt.Errorf("fleet: %s /predict answered %s", h.id, resp.Status)
	}
	var p ModelPrediction
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return ModelPrediction{}, err
	}
	h.wireMS.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	return p, nil
}

// predict returns the model's cached prediction, refreshing when older
// than the freshness bound. Refreshes are single-flight: one caller
// polls, concurrent callers wait for it. When the refresh fails the
// entry keeps its timestamp (no retry storm inside the freshness window)
// and ok=false marks the prediction unknown.
func (h *HTTPReplica) predict(model string) (ModelPrediction, bool) {
	freshness := time.Duration(h.cfg.FreshnessMS * float64(time.Millisecond))
	for {
		h.mu.Lock()
		e := h.cache[model]
		if e == nil {
			e = &predEntry{}
			h.cache[model] = e
		}
		now := h.cfg.Clock()
		fresh := !e.at.IsZero() && now.Sub(e.at) < freshness
		if fresh {
			p, ok := e.pred, e.ok
			if !ok {
				h.staleReads++
			}
			h.mu.Unlock()
			return p, ok
		}
		if e.busy != nil {
			// A refresh is in flight; wait for it and re-read.
			wait := e.busy
			h.mu.Unlock()
			<-wait
			continue
		}
		done := make(chan struct{})
		e.busy = done
		h.refreshes++
		h.mu.Unlock()

		p, err := h.fetchPredict(model)

		h.mu.Lock()
		e.at = h.cfg.Clock()
		e.busy = nil
		if err != nil {
			h.refreshErrs++
			e.ok = false
			e.pred = ModelPrediction{}
			h.staleReads++
		} else {
			e.ok = true
			e.pred = p
		}
		ok := e.ok
		h.mu.Unlock()
		close(done)
		return p, ok
	}
}

// Predict returns the replica's live remote prediction for a model
// (false when stale and unrefreshable) — the same capability local nodes
// expose, so Fleet.Predict aggregates both kinds.
func (h *HTTPReplica) Predict(model string, _ int) (ModelPrediction, bool) {
	return h.predict(model)
}

// ID returns the replica's routing identity.
func (h *HTTPReplica) ID() string { return h.id }

// Platform returns the remote daemon's GPU platform name.
func (h *HTTPReplica) Platform() string { return h.platform }

// Submit posts one inference request; the ticket resolves when the HTTP
// response arrives.
func (h *HTTPReplica) Submit(model string) (*Ticket, error) {
	type outcome struct {
		res serve.Result
		err error
	}
	ch := make(chan outcome, 1)
	url := h.baseURL + "/infer?model=" + model
	go func() {
		resp, err := h.client.Post(url, "application/json", bytes.NewReader(nil))
		if err != nil {
			ch <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			ch <- outcome{err: fmt.Errorf("fleet: %s answered %s", h.id, resp.Status)}
			return
		}
		var res serve.Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			ch <- outcome{err: err}
			return
		}
		ch <- outcome{res: res}
	}()
	return &Ticket{
		replica: h.id,
		model:   model,
		wait: func(ctx context.Context) (serve.Result, error) {
			select {
			case o := <-ch:
				return o.res, o.err
			case <-ctx.Done():
				return serve.Result{}, ctx.Err()
			}
		},
	}, nil
}

// PredictCompletionMS is the daemon's Eq 12 completion estimate read
// over the wire, plus the observed wire round-trip the request itself
// will pay. 0 when the cached prediction is stale and unrefreshable —
// unknown, which Fleet.Submit orders behind every live prediction.
func (h *HTTPReplica) PredictCompletionMS(model string) float64 {
	p, ok := h.predict(model)
	if !ok {
		return 0
	}
	return p.PredictMS + h.wireMS.Value()
}

// CapacityRPS is the daemon's live aggregate capacity when predictions
// flow, falling back to the statically configured ring weight.
func (h *HTTPReplica) CapacityRPS(model string) float64 {
	if p, ok := h.predict(model); ok && p.CapacityRPS > 0 {
		return p.CapacityRPS
	}
	return h.weight
}

// wireHealth is the daemon's /healthz payload.
type wireHealth struct {
	HealthyReplicas int `json:"healthy_replicas"`
	TotalReplicas   int `json:"total_replicas"`
}

// Healthy polls the daemon's /healthz. Reason strings distinguish the
// failure class: "unreachable: ..." when the network or decode failed,
// "degraded: ..." when the daemon itself reported no healthy replica.
func (h *HTTPReplica) Healthy() (bool, []string) {
	resp, err := h.client.Get(h.baseURL + "/healthz")
	if err != nil {
		return false, []string{"unreachable: " + err.Error()}
	}
	defer resp.Body.Close()
	var hl wireHealth
	if err := json.NewDecoder(resp.Body).Decode(&hl); err != nil {
		return false, []string{"unreachable: " + err.Error()}
	}
	if hl.HealthyReplicas == 0 {
		return false, []string{fmt.Sprintf("degraded: daemon reports 0/%d healthy replicas", hl.TotalReplicas)}
	}
	return true, nil
}

// Stats fetches the daemon's per-replica serving snapshots for a model
// over GET /stats and sums the countable fields into one remote view, so
// fleet-of-fleets drivers can assert conservation across the wire.
func (h *HTTPReplica) Stats(model string) (serve.Snapshot, bool) {
	resp, err := h.client.Get(h.baseURL + "/stats?model=" + model)
	if err != nil {
		return serve.Snapshot{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.Snapshot{}, false
	}
	var byReplica map[string]serve.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&byReplica); err != nil {
		return serve.Snapshot{}, false
	}
	if len(byReplica) == 0 {
		return serve.Snapshot{}, false
	}
	ids := make([]string, 0, len(byReplica))
	for id := range byReplica {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	sum := byReplica[ids[0]]
	for _, id := range ids[1:] {
		st := byReplica[id]
		sum.Submitted += st.Submitted
		sum.Rejected += st.Rejected
		sum.RejectedQueueFull += st.RejectedQueueFull
		sum.RejectedUnmeetable += st.RejectedUnmeetable
		sum.RejectedSaturated += st.RejectedSaturated
		sum.Completed += st.Completed
		sum.Failed += st.Failed
		sum.Batches += st.Batches
		sum.DemotedBatches += st.DemotedBatches
		sum.DeadlineMissed += st.DeadlineMissed
		sum.QueueDepth += st.QueueDepth
		sum.Retries += st.Retries
		sum.ExecTimeouts += st.ExecTimeouts
	}
	return sum, true
}

// Close releases the replica's idle HTTP connections. The remote daemon
// owns its own lifecycle.
func (h *HTTPReplica) Close(context.Context) error {
	h.client.CloseIdleConnections()
	return nil
}
