package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"pcnn/internal/compile"
	"pcnn/internal/obs"
	"pcnn/internal/serve"
)

// prometheusContentType is the exposition-format content type /metrics
// answers with.
const prometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// ModelPrediction is the GET /predict wire payload: one model's Eq 12
// serving prediction as routed right now. Replica/Platform/Version name
// the best (fastest-predicting) replica; CapacityRPS and QueueDepth
// aggregate over every active replica so a remote router sees the whole
// daemon's headroom, not one server's.
type ModelPrediction struct {
	Model    string `json:"model"`
	Version  int    `json:"version"`
	Replica  string `json:"replica"`
	Platform string `json:"platform"`
	// Degraded reports whether the predicting replica serves above its
	// base perforation level — remote routers fold it into health.
	Degraded bool `json:"degraded"`
	serve.Prediction
}

// betterPrediction orders candidate predictions: a known (positive)
// PredictMS always beats an unknown one, then smaller is better.
func betterPrediction(a, b ModelPrediction) bool {
	switch {
	case a.PredictMS > 0 && b.PredictMS <= 0:
		return true
	case a.PredictMS <= 0 && b.PredictMS > 0:
		return false
	}
	return a.PredictMS < b.PredictMS
}

// Predict assembles the fleet's serving prediction for a model: the best
// active replica's Eq 12 numbers with capacity and queue depth summed
// across the active set. batch > 0 additionally prices one batch of that
// size on the best replica.
func (f *Fleet) Predict(model string, batch int) (ModelPrediction, error) {
	dep := f.reg.Current(model)
	if dep == nil {
		return ModelPrediction{}, fmt.Errorf("fleet: model %q not in registry", model)
	}
	f.mu.Lock()
	act := f.activeLocked()
	f.mu.Unlock()
	preds := make([]ModelPrediction, 0, len(act))
	for _, r := range act {
		if p, ok := r.Predict(model, batch); ok {
			preds = append(preds, p)
		}
	}
	if len(preds) == 0 {
		return ModelPrediction{}, fmt.Errorf("fleet: no replica can serve %s", model)
	}
	best := 0
	var capacity float64
	depth := 0
	for i, p := range preds {
		capacity += p.CapacityRPS
		depth += p.QueueDepth
		if i > 0 && betterPrediction(p, preds[best]) {
			best = i
		}
	}
	out := preds[best]
	if out.Version == 0 {
		out.Version = dep.Version
	}
	out.CapacityRPS = capacity
	out.QueueDepth = depth
	return out, nil
}

// PredictAll returns one prediction per registered model, sorted by
// model name. Models no active replica can serve are skipped.
func (f *Fleet) PredictAll(batch int) []ModelPrediction {
	models := f.reg.Models()
	out := make([]ModelPrediction, 0, len(models))
	for _, m := range models {
		if p, err := f.Predict(m, batch); err == nil {
			out = append(out, p)
		}
	}
	return out
}

// ModelStats gathers each replica's serving snapshot for a model, keyed
// by replica ID. Replicas that never served the model (or cannot report)
// are absent.
func (f *Fleet) ModelStats(model string) map[string]serve.Snapshot {
	f.mu.Lock()
	replicas := append([]Replica(nil), f.replicas...)
	f.mu.Unlock()
	out := map[string]serve.Snapshot{}
	for _, r := range replicas {
		if st, ok := r.Stats(model); ok {
			out[r.ID()] = st
		}
	}
	return out
}

// localServers returns every local node's current server for a model,
// keyed by node ID, building servers that do not exist yet. Remote
// replicas and nodes that cannot serve the model are absent.
func (f *Fleet) localServers(model string) map[string]*serve.Server {
	f.mu.Lock()
	replicas := append([]Replica(nil), f.replicas...)
	f.mu.Unlock()
	out := map[string]*serve.Server{}
	for _, r := range replicas {
		if node, ok := r.(*Node); ok {
			if srv, _, err := node.Server(model); err == nil {
				out[node.id] = srv
			}
		}
	}
	return out
}

// emitJSON writes an indented JSON body.
func emitJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// inferStatus maps a failed /infer to its status code, wherever along the
// route it failed: shed load is 429 — refused at admission here, or
// answered 429 by a remote daemon a leg went to — an empty fleet is 503,
// and anything else is 500.
func inferStatus(err error) int {
	var remote *statusError
	switch {
	case errors.Is(err, serve.ErrQueueFull), errors.Is(err, serve.ErrDeadlineUnmeetable),
		errors.As(err, &remote) && remote.code == http.StatusTooManyRequests:
		return http.StatusTooManyRequests
	case errors.Is(err, ErrNoReplicas):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// requestModel resolves a request's model= parameter against the
// registry, answering 400 itself (and reporting false) when it names no
// servable model. An absent model= means the only registered model — a
// one-model daemon needs no model= anywhere — and is an error naming the
// choices when several are registered.
func requestModel(w http.ResponseWriter, reg *Registry, q url.Values) (string, bool) {
	model := q.Get("model")
	if model == "" {
		models := reg.Models()
		if len(models) == 1 {
			return models[0], true
		}
		http.Error(w, fmt.Sprintf("model= is required: registered models are [%s]",
			strings.Join(models, " ")), http.StatusBadRequest)
		return "", false
	}
	if reg.Current(model) == nil {
		http.Error(w, fmt.Sprintf("unknown model %q", model), http.StatusBadRequest)
		return "", false
	}
	return model, true
}

// intParam reads an optional integer parameter that must be at least min
// when present (0 when absent), answering 400 itself on a bad value.
func intParam(w http.ResponseWriter, q url.Values, name string, min int) (int, bool) {
	s := q.Get(name)
	if s == "" {
		return 0, true
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < min {
		http.Error(w, fmt.Sprintf("bad %s %q", name, s), http.StatusBadRequest)
		return 0, false
	}
	return v, true
}

// Handler wires the fleet HTTP API — the whole daemon surface cmd/pcnnd
// serves and the e2e harness drives. Where model= selects one model it
// may be omitted on a daemon that registers exactly one:
//
//	POST /infer?model=&client=  route one request, body is the result as compact JSON
//	GET  /predict?model=&batch= Eq 12 prediction (all models without model=)
//	GET  /stats?model=          per-replica serve snapshots (all models without model=)
//	GET  /trace?model=&n=       per-replica recent request traces, newest first
//	GET  /profile?model=        per-replica per-layer time/energy breakdown
//	GET  /fleet                 membership, health, routing counters
//	GET  /healthz               aggregate health (503 when no healthy replica)
//	GET  /metrics               merged Prometheus exposition
//	POST /swap?model=&dvfs=     recompile + hot-swap the model's deployment
//	POST /busy?model=&ms=       declare a busy horizon on local servers
func Handler(fl *Fleet) http.Handler {
	mux := http.NewServeMux()
	post := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			h(w, r)
		}
	}
	mux.HandleFunc("/infer", post(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		model, ok := requestModel(w, fl.reg, q)
		if !ok {
			return
		}
		ff, err := fl.Submit(model, q.Get("client"))
		if err != nil {
			http.Error(w, err.Error(), inferStatus(err))
			return
		}
		res, replica, err := ff.Wait(r.Context())
		if err != nil {
			http.Error(w, err.Error(), inferStatus(err))
			return
		}
		buf := wireBufs.Get().(*[]byte)
		defer wireBufs.Put(buf)
		b, err := appendResult((*buf)[:0], res)
		*buf = b[:0]
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(b)))
		h.Set("X-Pcnn-Replica", replica)
		_, _ = w.Write(b) // the client went away; nothing to tell it
	}))
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		batch, ok := intParam(w, q, "batch", 0)
		if !ok {
			return
		}
		model := q.Get("model")
		if model == "" {
			emitJSON(w, fl.PredictAll(batch))
			return
		}
		p, err := fl.Predict(model, batch)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		emitJSON(w, p)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		model := r.URL.Query().Get("model")
		if model != "" {
			emitJSON(w, fl.ModelStats(model))
			return
		}
		all := map[string]map[string]serve.Snapshot{}
		for _, m := range fl.Registry().Models() {
			if st := fl.ModelStats(m); len(st) > 0 {
				all[m] = st
			}
		}
		emitJSON(w, all)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		model, ok := requestModel(w, fl.reg, q)
		if !ok {
			return
		}
		n, ok := intParam(w, q, "n", 1) // absent: everything held
		if !ok {
			return
		}
		traces := map[string][]obs.Trace{}
		for id, srv := range fl.localServers(model) {
			traces[id] = srv.Traces(n)
		}
		emitJSON(w, traces)
	})
	mux.HandleFunc("/profile", func(w http.ResponseWriter, r *http.Request) {
		model, ok := requestModel(w, fl.reg, r.URL.Query())
		if !ok {
			return
		}
		profiles := map[string][]compile.LayerProfile{}
		for id, srv := range fl.localServers(model) {
			prof, err := srv.LayerProfile()
			if err != nil {
				http.Error(w, err.Error(), http.StatusNotImplemented)
				return
			}
			profiles[id] = prof
		}
		emitJSON(w, profiles)
	})
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, _ *http.Request) {
		emitJSON(w, fl.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		snap := fl.Snapshot()
		healthy := 0
		for _, r := range snap.Replicas {
			if r.Healthy && !r.Ejected {
				healthy++
			}
		}
		if healthy == 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		emitJSON(w, struct {
			Healthy int `json:"healthy_replicas"`
			Total   int `json:"total_replicas"`
		}{healthy, len(snap.Replicas)})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", prometheusContentType)
		_ = fl.WriteMetrics(w)
	})
	mux.HandleFunc("/swap", post(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		model, ok := requestModel(w, fl.reg, q)
		if !ok {
			return
		}
		d, err := fl.reg.Current(model).Recompile(q.Get("dvfs") == "1")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if _, err := fl.Swap(d); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// Old versions drain in the background: routing already resolves
		// to the new deployment, retired servers finish in-flight work.
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			_, _ = fl.DrainRetired(ctx)
		}()
		emitJSON(w, struct {
			Model   string `json:"model"`
			Version int    `json:"version"`
		}{model, fl.Registry().Current(model).Version})
	}))
	mux.HandleFunc("/busy", post(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		model, ok := requestModel(w, fl.reg, q)
		if !ok {
			return
		}
		ms, err := strconv.ParseFloat(q.Get("ms"), 64)
		if err != nil || ms < 0 {
			http.Error(w, fmt.Sprintf("bad ms %q", q.Get("ms")), http.StatusBadRequest)
			return
		}
		// The hook that lets tests and co-running workloads mark a daemon
		// occupied: every local server for the model takes the horizon.
		until := fl.cfg.Clock().Add(time.Duration(ms * float64(time.Millisecond)))
		srvs := fl.localServers(model)
		for _, srv := range srvs {
			srv.SetBusyUntil(until)
		}
		emitJSON(w, struct {
			Model   string  `json:"model"`
			BusyMS  float64 `json:"busy_ms"`
			Servers int     `json:"servers"`
		}{model, ms, len(srvs)})
	}))
	return mux
}

// mergeReplicaMetrics folds an extra registry into the fleet exposition;
// WriteMetrics calls it for replicas that export their own metric
// families (HTTP replicas' wire/staleness counters).
func mergeReplicaMetrics(exp *obs.Exposition, r Replica) {
	type metricsSource interface{ Metrics() *obs.Registry }
	src, ok := r.(metricsSource)
	if !ok || src.Metrics() == nil {
		return
	}
	exp.Add(src.Metrics(),
		obs.Label{Key: "replica", Value: r.ID()},
		obs.Label{Key: "platform", Value: r.Platform()})
}
