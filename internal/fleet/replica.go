package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pcnn/internal/obs"
	"pcnn/internal/serve"
)

// Ticket is one submitted request leg. Unlike serve.Future — whose Wait
// may be called once — a Ticket memoizes its outcome, so both the fleet
// future (picking the hedge winner) and a deterministic soak driver
// (accounting execution time) can Wait on the same leg.
//
// A local leg is queued on its server by Submit. A remote leg is posted
// by its first Wait, on the waiting goroutine, under that Wait's ctx:
// until somebody waits, nothing is on the wire, and cancelling the ctx
// aborts the POST.
type Ticket struct {
	replica string
	model   string
	version int
	srv     *serve.Server // nil for remote legs
	fut     *serve.Future // nil for remote legs
	remote  *HTTPReplica  // nil for local legs

	once sync.Once
	res  serve.Result
	err  error
}

// Wait blocks until the leg resolves (or ctx expires on the first call —
// the first outcome, whatever it is, is what every later Wait returns).
func (t *Ticket) Wait(ctx context.Context) (serve.Result, error) {
	t.once.Do(func() {
		if t.remote != nil {
			t.res, t.err = t.remote.infer(ctx, t.model)
		} else {
			t.res, t.err = t.fut.Wait(ctx)
		}
	})
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
	// Submit routes one request for a model to the replica. A local
	// replica queues it at once; a remote one sends it when the ticket is
	// first waited on (see Ticket).
	Submit(model string) (*Ticket, error)
	// Predict is the replica's Eq 12 prediction for a model: PredictMS
	// orders least-slack fallbacks and decides hedging, CapacityRPS
	// weights the ring. false means it cannot predict (model unservable
	// there, or a stale and unrefreshable remote cache).
	Predict(model string, batch int) (ModelPrediction, bool)
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
	// Its Faults injector, if any, is shared by every server the node
	// builds.
	Serve serve.Config
}

// modelServer is one model's current in-process server and the registry
// version it was built from.
type modelServer struct {
	model   string
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
	srv, err := serve.NewServer(ex, d.Task, cfg)
	if err != nil {
		return nil, 0, err
	}
	if ms != nil {
		n.retired = append(n.retired, ms.srv)
	}
	n.servers[model] = &modelServer{model: model, srv: srv, version: d.Version}
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
	return &Ticket{replica: n.id, model: model, version: version, srv: srv, fut: fut}, nil
}

// Predict exports the node's current Eq 12 serving prediction for a
// model (false when the model cannot be served here).
func (n *Node) Predict(model string, batch int) (ModelPrediction, bool) {
	srv, ver, err := n.Server(model)
	if err != nil {
		return ModelPrediction{}, false
	}
	p := srv.Predict(batch)
	return ModelPrediction{
		Model:      model,
		Version:    ver,
		Replica:    n.id,
		Platform:   n.platform,
		Degraded:   p.Level > p.BaseLevel,
		Prediction: p,
	}, true
}

// Healthy aggregates the node's per-model server health: the node takes
// traffic only while it is open and no server it runs has its circuit
// breaker open (the GPU is the failure domain — one executor's launch
// failures predict the others').
func (n *Node) Healthy() (bool, []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false, []string{"node closed"}
	}
	var reasons []string
	for _, ms := range n.currentLocked() {
		if ms.srv.BreakerState() == serve.BreakerOpen {
			reasons = append(reasons, ms.model+": circuit breaker open")
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

// current lists the node's current servers sorted by model: the one view
// of a node that Healthy, Fleet.Snapshot and Fleet.WriteMetrics read.
func (n *Node) current() []*modelServer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.currentLocked()
}

// currentLocked is current for a caller holding n.mu.
func (n *Node) currentLocked() []*modelServer {
	out := make([]*modelServer, 0, len(n.servers))
	for _, ms := range n.servers {
		out = append(out, ms)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].model < out[j].model })
	return out
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
// nodes. A replica whose cache is stale and unrefreshable cannot predict,
// which sorts it behind every replica with a live prediction (see
// Fleet.candidates) and weighs it as the ring's mean.
type HTTPReplica struct {
	id         string
	platform   string
	baseURL    string
	healthzURL string
	client     *http.Client
	cfg        HTTPReplicaConfig

	mu    sync.Mutex
	cache map[string]*predEntry // model → cached /predict payload
	urls  map[string]*modelURLs // model → its request URLs, built once

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
	// FreshnessMS bounds prediction staleness: cached payloads older than
	// this are refreshed before use, and unrefreshable ones read as
	// unknown. 0 means 250.
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
// (e.g. "http://10.0.0.7:8080") under cfg: HTTP client, staleness
// bound, injected clock.
func NewHTTPReplicaConfig(id, platform, baseURL string, cfg HTTPReplicaConfig) *HTTPReplica {
	cfg = cfg.withDefaults()
	h := &HTTPReplica{
		id:         id,
		platform:   platform,
		baseURL:    baseURL,
		healthzURL: baseURL + "/healthz",
		client:     cfg.Client,
		cfg:        cfg,
		cache:      map[string]*predEntry{},
		urls:       map[string]*modelURLs{},
		wireMS:     obs.NewEWMA(0.2),
		obsReg:     obs.NewRegistry(),
	}
	h.registerMetrics()
	return h
}

// modelURLs are the daemon URLs of one model's requests.
type modelURLs struct{ infer, predict, stats string }

// urlsFor returns the model's request URLs, building them on first use.
func (h *HTTPReplica) urlsFor(model string) *modelURLs {
	h.mu.Lock()
	defer h.mu.Unlock()
	u := h.urls[model]
	if u == nil {
		q := "?model=" + url.QueryEscape(model)
		u = &modelURLs{infer: h.baseURL + "/infer" + q, predict: h.baseURL + "/predict" + q, stats: h.baseURL + "/stats" + q}
		h.urls[model] = u
	}
	return u
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
	resp, err := h.client.Get(h.urlsFor(model).predict)
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

// Predict returns the daemon's Eq 12 prediction for a model read over the
// wire, with the observed wire round trip the request itself will pay
// added to PredictMS; false when the cached prediction is stale and
// unrefreshable. batch is not forwarded: the payload prices no batch.
func (h *HTTPReplica) Predict(model string, _ int) (ModelPrediction, bool) {
	p, ok := h.predict(model)
	if !ok {
		return ModelPrediction{}, false
	}
	p.PredictMS += h.wireMS.Value()
	return p, true
}

// ID returns the replica's routing identity.
func (h *HTTPReplica) ID() string { return h.id }

// Platform returns the remote daemon's GPU platform name.
func (h *HTTPReplica) Platform() string { return h.platform }

// Submit returns the leg of one inference request without sending it:
// the ticket's first Wait posts it on the waiting goroutine, so a remote
// leg costs no goroutine and the waiter's ctx bounds the whole exchange.
// Callers wait on the ticket right after submitting it.
func (h *HTTPReplica) Submit(model string) (*Ticket, error) {
	return &Ticket{replica: h.id, model: model, remote: h}, nil
}

// statusError is a daemon's non-200 answer to /infer.
type statusError struct {
	replica string
	code    int
	status  string // "429 Too Many Requests"
	msg     string // the daemon's error text
}

func (e *statusError) Error() string {
	return fmt.Sprintf("fleet: %s answered %s: %s", e.replica, e.status, e.msg)
}

// infer posts one /infer for the model and decodes the reply. When ctx
// ends first the request is aborted and ctx's error is returned.
func (h *HTTPReplica) infer(ctx context.Context, model string) (serve.Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.urlsFor(model).infer, http.NoBody)
	if err != nil {
		return serve.Result{}, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return serve.Result{}, ctxOr(ctx, err)
	}
	defer resp.Body.Close()
	buf := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(buf)
	b, err := readBody(resp.Body, (*buf)[:0])
	*buf = b[:0]
	if err != nil {
		return serve.Result{}, ctxOr(ctx, err)
	}
	if resp.StatusCode != http.StatusOK {
		return serve.Result{}, &statusError{replica: h.id, code: resp.StatusCode, status: resp.Status,
			msg: strings.TrimSpace(string(b))}
	}
	res, err := parseResult(b)
	if err != nil {
		return serve.Result{}, fmt.Errorf("fleet: %s /infer: %w", h.id, err)
	}
	return res, nil
}

// ctxOr returns ctx's error when ctx has ended — the reason a request
// failed then — and err otherwise.
func ctxOr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return err
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
	resp, err := h.client.Get(h.healthzURL)
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
	resp, err := h.client.Get(h.urlsFor(model).stats)
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
