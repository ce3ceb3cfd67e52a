package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"pcnn"
	"pcnn/internal/fleet"
	"pcnn/internal/serve"
)

// fleetWire is the control plane with no math: two loopback daemons
// (fleet.Handler → Node → serve.Server → simulation-only PlanExecutor; one
// TitanX, one TX1) behind an outer Fleet{PolicyLeastSlack, Hedge} of
// HTTPReplicas. The daemons serve in the paper's non-batching interactive
// mode (MaxBatch 1) so no timer sits on the path: with the default batch
// cap and two callers every request would wait out the linger and no
// host-side change could move it. Two generators, closed loop, seeded
// 50/30/20 model mix over 64 client keys. One op is one routed request.
// nn and tensor do nothing here.
type fleetWire struct {
	c         *config
	executors map[string]map[string]serve.Executor // model → platform → executor
	cluster   *cluster
	// Filled by the traced window for layers.
	hedgeFrac float64
	submitNS  *histogram
}

// fleetModel pairs a network with the archetype it serves under.
type fleetModel struct {
	name  string
	task  pcnn.Task
	share float64 // cumulative share of the request mix
}

var (
	fleetModels = []fleetModel{
		{"AlexNet", pcnn.AgeDetection(), 0.5},
		{"VGGNet", pcnn.VideoSurveillance(30), 0.8},
		{"GoogLeNet", pcnn.ImageTagging(), 1.0},
	}
	fleetPlatforms = []string{"TitanX", "TX1"}
	fleetServeCfg  = serve.Config{Workers: 2, LingerMS: 1, QueueCap: 1024, MaxBatch: 1}
)

const (
	fleetGenerators = 2
	fleetClientKeys = 64
	fleetWarmupOps  = 100_000
	reqHeader       = "X-Bench-Req"
)

// daemon is one real fleet daemon on a loopback listener.
type daemon struct {
	fl  *fleet.Fleet
	srv *http.Server
}

// cluster is the daemons plus the outer routing fleet over them.
type cluster struct {
	daemons  []*daemon
	outer    *fleet.Fleet
	replicas []*fleet.HTTPReplica
}

// registry builds a fresh registry over the compiled executors; wrap, when
// set, decorates each executor (the traced run's only change).
func (w *fleetWire) registry(wrap func(model, platform int, ex serve.Executor) serve.Executor) (*fleet.Registry, error) {
	reg := fleet.NewRegistry()
	for mi, m := range fleetModels {
		exs := make(map[string]serve.Executor, len(fleetPlatforms))
		for pi, p := range fleetPlatforms {
			exs[p] = w.executors[m.name][p]
			if wrap != nil {
				exs[p] = wrap(mi, pi, exs[p])
			}
		}
		dep, err := fleet.NewDeployment(m.name, m.task, exs)
		if err != nil {
			return nil, err
		}
		if err := reg.Register(dep); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// newCluster starts one daemon per platform and the outer fleet. tr, when
// set, installs the three wrappers: executor, handler middleware, and the
// HTTP client's round tripper.
func (w *fleetWire) newCluster(tr *tracer) (*cluster, error) {
	cl := &cluster{}
	var transport http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 2 * fleetGenerators}
	if tr != nil {
		transport = &tracedTransport{next: transport, tr: tr}
	}
	client := &http.Client{Transport: transport}
	// Daemon i serves on platform i, so tagging an executor with its
	// platform tags it with the daemon that will run it.
	var wrap func(model, platform int, ex serve.Executor) serve.Executor
	if tr != nil {
		wrap = func(model, platform int, ex serve.Executor) serve.Executor {
			return &tracedExecutor{Executor: ex, tr: tr, name: "execute", aux: spanTag(platform, model) << 16}
		}
	}
	for pi, platform := range fleetPlatforms {
		reg, err := w.registry(wrap)
		if err != nil {
			return nil, err
		}
		fl := fleet.New(reg, fleet.Config{})
		id := "d" + strconv.Itoa(pi)
		if err := fl.AddReplica(fleet.NewNode(id+"-n0", platform, reg, fleet.NodeConfig{Serve: fleetServeCfg})); err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		handler := fleet.Handler(fl)
		if tr != nil {
			handler = tracedHandler(handler, tr, pi)
		}
		srv := &http.Server{Handler: handler}
		go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed at shutdown
		cl.daemons = append(cl.daemons, &daemon{fl: fl, srv: srv})
		cl.replicas = append(cl.replicas, fleet.NewHTTPReplicaConfig(id, platform, "http://"+ln.Addr().String(), fleet.HTTPReplicaConfig{Client: client}))
	}
	reg, err := w.registry(nil)
	if err != nil {
		return nil, err
	}
	cl.outer = fleet.New(reg, fleet.Config{Policy: fleet.PolicyLeastSlack, Hedge: true})
	for _, r := range cl.replicas {
		if err := cl.outer.AddReplica(r); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// close drains the cluster and checks conservation over the wire: on every
// daemon, for every model, Submitted == Completed + Failed with nothing
// failed — every request the daemons accepted was answered.
func (cl *cluster) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for i, r := range cl.replicas {
		for _, m := range fleetModels {
			if st, ok := r.Stats(m.name); ok && (st.Submitted != st.Completed+st.Failed || st.Failed != 0) {
				errs = append(errs, fmt.Errorf("daemon %d %s: submitted %d, completed %d, failed %d",
					i, m.name, st.Submitted, st.Completed, st.Failed))
			}
		}
	}
	errs = append(errs, cl.outer.Close(ctx))
	for _, d := range cl.daemons {
		errs = append(errs, d.srv.Shutdown(ctx), d.fl.Close(ctx))
	}
	return errors.Join(errs...)
}

func (w *fleetWire) setup(c *config) error {
	w.c = c
	w.executors = map[string]map[string]serve.Executor{}
	for _, m := range fleetModels {
		dep, err := fleet.CompileDeployment(m.name, m.task, fleetPlatforms, false)
		if err != nil {
			return err
		}
		w.executors[m.name] = map[string]serve.Executor{}
		for _, p := range fleetPlatforms {
			w.executors[m.name][p] = dep.Executor(p)
		}
	}
	var err error
	if w.cluster, err = w.newCluster(nil); err != nil {
		return err
	}
	st, _ := w.loop(opsBudget(c.scale(fleetWarmupOps)), w.cluster.outer, false)
	if st.failed > 0 {
		return fmt.Errorf("%d of %d warm-up requests failed", st.failed, st.attempted)
	}
	return nil
}

func (w *fleetWire) window(d time.Duration, tr *tracer) (*windowStats, error) {
	if tr == nil {
		st, _ := w.loop(timeBudget(d), w.cluster.outer, false)
		return st, nil
	}
	cl, err := w.newCluster(tr)
	if err != nil {
		return nil, err
	}
	w.loop(opsBudget(w.c.scale(fleetWarmupOps)/10), cl.outer, false) // connections and first-use caches
	st, submitNS := w.loop(timeBudget(d), cl.outer, true)
	w.submitNS = submitNS
	snap := cl.outer.Snapshot()
	if snap.Requests > 0 {
		w.hedgeFrac = float64(snap.Hedges) / float64(snap.Requests)
	}
	return st, cl.close()
}

// submitter is what a generator drives: the outer fleet in the workload,
// an in-process fleet in the no-wire probe.
type submitter interface {
	Submit(model, key string) (*fleet.FleetFuture, error)
}

// loop drives the generators; timed also collects how long each
// Fleet.Submit call took.
func (w *fleetWire) loop(b *budget, fl submitter, timed bool) (*windowStats, *histogram) {
	return drive(b, fleetGenerators, timed, func(g int, st *windowStats, submitNS *histogram) {
		generateFleet(b, fl, rand.New(rand.NewSource(w.c.seed+int64(g))), st, submitNS)
	})
}

// generateFleet is one closed-loop caller: draw a model and a client key,
// route, wait for the reply. A request succeeded when the fleet returned a
// decoded serve.Result (HTTP 200 on the wire) that describes an executed
// batch.
func generateFleet(b *budget, fl submitter, rng *rand.Rand, st *windowStats, submitNS *histogram) {
	ctx := context.Background()
	keys := make([]string, fleetClientKeys)
	for i := range keys {
		keys[i] = "client-" + strconv.Itoa(i)
	}
	for b.next() {
		u := rng.Float64()
		model := fleetModels[len(fleetModels)-1].name
		for _, m := range fleetModels {
			if u < m.share {
				model = m.name
				break
			}
		}
		key := keys[rng.Intn(len(keys))]
		st.attempted++
		t0 := time.Now()
		ff, err := fl.Submit(model, key)
		if submitNS != nil {
			submitNS.record(int64(time.Since(t0)))
		}
		if err != nil {
			st.failed++
			continue
		}
		res, _, err := ff.Wait(ctx)
		if err != nil || res.Batch < 1 || res.ExecMS <= 0 {
			st.failed++
			continue
		}
		st.succeed(t0, time.Now())
	}
}

// spanTag packs which daemon and which model a span belongs to.
func spanTag(daemon, model int) int64 { return int64(daemon)<<8 | int64(model) }

func modelIndex(name string) int {
	for i, m := range fleetModels {
		if m.name == name {
			return i
		}
	}
	return len(fleetModels)
}

// tracedTransport wraps the HTTP client: one span per round trip, and a
// request id header on /infer so the daemon-side handler span can be
// linked under it.
type tracedTransport struct {
	next http.RoundTripper
	tr   *tracer
	ids  atomic.Uint64
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name, id := "wire.predict", uint64(0)
	if req.URL.Path == "/infer" {
		name, id = "wire.infer", t.ids.Add(1)
		req = req.Clone(req.Context()) // a RoundTripper must not modify its argument
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	t0 := time.Now()
	resp, err := t.next.RoundTrip(req)
	t.tr.add(name, -1, id, t.tr.at(t0), t.tr.at(time.Now()), 0)
	return resp, err
}

func (t *tracedTransport) CloseIdleConnections() {
	if c, ok := t.next.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// tracedHandler is the middleware around fleet.Handler: one span per
// /infer, carrying the caller's request id.
func tracedHandler(next http.Handler, tr *tracer, daemon int) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/infer" {
			next.ServeHTTP(rw, r)
			return
		}
		id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64) // 0 = not one of ours
		t0 := time.Now()
		next.ServeHTTP(rw, r)
		tr.add("handler.infer", -1, id, tr.at(t0), tr.at(time.Now()), spanTag(daemon, modelIndex(r.URL.Query().Get("model"))))
	})
}

// linkWireSpans nests the three sides of each request: the handler span under
// the wire span with the same id, and each daemon-side Execute under the
// handler span it ran inside. Execute knows no request id, but with
// MaxBatch 1 every /infer runs exactly one, in admission order, so the
// k-th handler span of a (daemon, model) owns the k-th Execute; a pair that
// does not nest (two admissions raced) is left unlinked.
func linkWireSpans(tr *tracer) {
	spans := tr.recorded()
	wire := map[uint64]int32{}
	handlers, execs := map[int64][]int32{}, map[int64][]int32{}
	for i, s := range spans {
		switch s.Name {
		case "wire.infer":
			wire[s.Req] = int32(i)
		case "handler.infer":
			handlers[s.Aux] = append(handlers[s.Aux], int32(i))
		case "execute":
			execs[s.Aux>>16] = append(execs[s.Aux>>16], int32(i))
		}
	}
	byStart := func(idx []int32) {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	for tag, hs := range handlers {
		for _, h := range hs {
			if p, ok := wire[spans[h].Req]; ok && spans[h].Req != 0 {
				spans[h].Parent = p
			}
		}
		es := execs[tag]
		byStart(hs)
		byStart(es)
		for k := 0; k < len(hs) && k < len(es); k++ {
			h, e := &spans[hs[k]], &spans[es[k]]
			if e.Start >= h.Start && e.End <= h.End {
				e.Parent, e.Req = hs[k], h.Req
			}
		}
	}
}

func (w *fleetWire) layers(tr *tracer, _ *windowStats, m map[string]float64) error {
	linkWireSpans(tr)
	spans := tr.recorded()
	self := selfTimes(spans)
	var wireSelf []float64
	for i, s := range spans {
		if s.Name == "wire.infer" {
			wireSelf = append(wireSelf, float64(self[i]))
		}
	}
	predicts := durations(spans, "wire.predict")
	m["fleet.wire.roundtrip.p50_ms"] = median(durations(spans, "wire.infer")) / 1e6
	m["fleet.handler.infer.p50_ms"] = median(durations(spans, "handler.infer")) / 1e6
	m["fleet.wire.self.p50_ms"] = median(wireSelf) / 1e6
	m["fleet.predict.refresh.count"] = float64(len(predicts))
	m["fleet.predict.get.p50_ms"] = median(predicts) / 1e6
	m["fleet.hedge.frac"] = w.hedgeFrac
	m["fleet.submit.ns"] = w.submitNS.quantile(0.50)
	return w.probes(m)
}

// probes measures the same path with layers removed: the same mix over
// in-process nodes (no wire), one server alone, and the lookups under them.
func (w *fleetWire) probes(m map[string]float64) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	window := time.Second
	if w.c.smoke {
		window = 50 * time.Millisecond
	}

	reg, err := w.registry(nil)
	if err != nil {
		return err
	}
	inproc := fleet.New(reg, fleet.Config{Policy: fleet.PolicyLeastSlack, Hedge: true})
	for pi, p := range fleetPlatforms {
		if err := inproc.AddReplica(fleet.NewNode("n"+strconv.Itoa(pi), p, reg, fleet.NodeConfig{Serve: fleetServeCfg})); err != nil {
			return err
		}
	}
	b := timeBudget(window)
	st := newWindowStats(b)
	generateFleet(b, inproc, rand.New(rand.NewSource(w.c.seed)), st, nil)
	if err := inproc.Close(ctx); err != nil {
		return err
	}
	if st.failed > 0 {
		return fmt.Errorf("in-process fleet probe: %d of %d requests failed", st.failed, st.attempted)
	}
	m["fleet.inproc.request.p50_ms"] = st.lat.ms(0.50)

	ex := w.executors["AlexNet"]["TitanX"]
	srv, err := serve.NewServer(ex, fleetModels[0].task, fleetServeCfg)
	if err != nil {
		return err
	}
	lat := new(histogram)
	for b := timeBudget(window); b.next(); {
		t0 := time.Now()
		fut, err := srv.Submit()
		if err != nil {
			return err
		}
		if _, err := fut.Wait(ctx); err != nil {
			return err
		}
		lat.record(int64(time.Since(t0)))
	}
	m["serve.request.p50_ms"], m["serve.request.p99_ms"] = lat.ms(0.50), lat.ms(0.99)
	m["serve.predict.ns"] = w.c.probeNS(func() { srv.Predict(0) })
	if err := srv.Close(ctx); err != nil {
		return err
	}
	m["compile.predict_ms.ns"] = w.c.probeNS(func() { ex.PredictMS(0, 1) })

	entries := make([]fleet.RingEntry, len(fleetPlatforms))
	for i := range entries {
		entries[i] = fleet.RingEntry{ID: "d" + strconv.Itoa(i), Weight: 1}
	}
	ring := fleet.NewRing(entries)
	m["fleet.ring.owner.ns"] = w.c.probeNS(func() { ring.Owner("AlexNet|client-7") })
	return nil
}

func (w *fleetWire) close() error { return w.cluster.close() }
