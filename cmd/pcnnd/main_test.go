package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pcnn"
)

// newTestDaemon builds the fleet the daemon would serve for the given
// command line and returns it with the one mux.
func newTestDaemon(t *testing.T, args ...string) (*pcnn.Fleet, http.Handler) {
	t.Helper()
	fl, err := newFleet(parseFlags(args))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		fl.Close(ctx)
	})
	return fl, pcnn.NewFleetHandler(fl)
}

// taggingDaemon is the compile-only one-model daemon most tests drive:
// every request below omits model=.
var taggingDaemon = []string{"-net", "AlexNet", "-platform", "TX1", "-task", "tagging", "-workers", "1"}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func post(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, nil))
	return rec
}

func TestDaemonObservabilityEndpoints(t *testing.T) {
	_, h := newTestDaemon(t, append(taggingDaemon, "-batch", "4")...)

	// Serve a few requests through the HTTP path itself.
	for i := 0; i < 6; i++ {
		if rec := post(t, h, "/infer"); rec.Code != http.StatusOK {
			t.Fatalf("POST /infer %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}

	// /metrics: Prometheus text format carrying the acceptance metrics,
	// every serve family under the node's labels.
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	body := rec.Body.String()
	const labels = `replica="replica-0",platform="TX1",model="AlexNet"`
	for _, want := range []string{
		"pcnn_fleet_requests_total 6",
		"pcnn_serve_queue_depth{" + labels + "}",
		`pcnn_serve_requests_total{outcome="completed",` + labels + `} 6`,
		`pcnn_serve_response_ms_bucket{level=`,
		"pcnn_serve_escalations_total",
		"pcnn_serve_calibrations_total",
		"pcnn_serve_throughput_rps",
		"pcnn_gemm_tile_mc",
		"pcnn_gemm_tile_nr",
		"pcnn_gemm_workers{" + labels + "}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /trace: the node's recent traces with the full stage lifecycle.
	rec = get(t, h, "/trace?n=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("/trace status %d: %s", rec.Code, rec.Body.String())
	}
	var traces map[string][]struct {
		ID     uint64 `json:"id"`
		Stages []struct {
			Name string `json:"name"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
		t.Fatalf("/trace decode: %v", err)
	}
	if got := traces["replica-0"]; len(traces) != 1 || len(got) != 3 {
		t.Fatalf("/trace?n=3 returned %d replicas, %d traces on replica-0", len(traces), len(got))
	}
	if got := len(traces["replica-0"][0].Stages); got != 5 {
		t.Errorf("trace has %d stages, want 5 (submit..resolve)", got)
	}
	if rec := get(t, h, "/trace?n=bogus"); rec.Code != http.StatusBadRequest {
		t.Errorf("/trace?n=bogus status %d, want 400", rec.Code)
	}

	// /profile: one entry per plan layer, all live.
	rec = get(t, h, "/profile")
	if rec.Code != http.StatusOK {
		t.Fatalf("/profile status %d: %s", rec.Code, rec.Body.String())
	}
	var prof map[string][]struct {
		Name        string  `json:"name"`
		PredictedMS float64 `json:"predicted_ms"`
		TimeMS      float64 `json:"time_ms"`
		EnergyJ     float64 `json:"energy_j"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &prof); err != nil {
		t.Fatalf("/profile decode: %v", err)
	}
	if len(prof["replica-0"]) == 0 {
		t.Fatal("/profile returned no layers")
	}
	for _, lp := range prof["replica-0"] {
		if lp.Name == "" || lp.TimeMS <= 0 || lp.EnergyJ <= 0 || lp.PredictedMS <= 0 {
			t.Errorf("degenerate profile entry: %+v", lp)
		}
	}

	// /predict: the live Eq 12 serving forecast, priced for a batch — one
	// row per registered model when model= is omitted.
	rec = get(t, h, "/predict?batch=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("/predict status %d: %s", rec.Code, rec.Body.String())
	}
	var preds []pcnn.FleetModelPrediction
	if err := json.Unmarshal(rec.Body.Bytes(), &preds); err != nil {
		t.Fatalf("/predict decode: %v", err)
	}
	if len(preds) != 1 {
		t.Fatalf("/predict listed %d models, want 1", len(preds))
	}
	if p := preds[0]; p.Model != "AlexNet" || p.Replica != "replica-0" ||
		p.CapacityRPS <= 0 || p.MaxBatch != 4 || p.BatchMS <= 0 {
		t.Errorf("degenerate prediction: %+v", p)
	}
	if rec := get(t, h, "/predict?batch=-1"); rec.Code != http.StatusBadRequest {
		t.Errorf("/predict?batch=-1 status %d, want 400", rec.Code)
	}

	// /stats reports the JSON snapshot per model and replica.
	rec = get(t, h, "/stats")
	var stats map[string]map[string]pcnn.ServeSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("/stats decode: %v", err)
	}
	snap := stats["AlexNet"]["replica-0"]
	if snap.Completed != 6 {
		t.Errorf("/stats completed = %d, want 6", snap.Completed)
	}
	if snap.LifetimeRPS <= 0 {
		t.Errorf("/stats lifetime_rps = %v, want > 0", snap.LifetimeRPS)
	}

	// /swap recompiles the one model for the one platform and the daemon
	// keeps serving.
	if rec := post(t, h, "/swap?dvfs=1"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"version": 2`) {
		t.Fatalf("POST /swap status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := post(t, h, "/infer"); rec.Code != http.StatusOK {
		t.Errorf("post-swap POST /infer status %d: %s", rec.Code, rec.Body.String())
	}
}

// healthz decodes the daemon's one health payload.
func healthz(t *testing.T, h http.Handler) (code, healthy, total int) {
	t.Helper()
	rec := get(t, h, "/healthz")
	var body struct {
		Healthy *int `json:"healthy_replicas"`
		Total   *int `json:"total_replicas"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Healthy == nil || body.Total == nil {
		t.Fatalf("/healthz payload %q: %v", rec.Body.String(), err)
	}
	return rec.Code, *body.Healthy, *body.Total
}

// TestHealthzLifecycle: /healthz answers 200 on a healthy daemon and on
// one serving above its base perforation level (graceful degradation is
// not an outage), 503 with the reason under /fleet when the circuit
// breaker trips under injected faults, and 503 once the daemon closed.
func TestHealthzLifecycle(t *testing.T) {
	_, h := newTestDaemon(t, taggingDaemon...)
	if code, healthy, total := healthz(t, h); code != http.StatusOK || healthy != 1 || total != 1 {
		t.Fatalf("/healthz on a healthy daemon: %d, %d/%d replicas", code, healthy, total)
	}

	// A declared busy horizon far past the 33 ms surveillance deadline
	// escalates the next flush; the daemon degrades and stays in rotation.
	_, esc := newTestDaemon(t, "-net", "AlexNet", "-platform", "TX1", "-task", "surveillance",
		"-workers", "1", "-batch", "1", "-reject=false")
	if rec := post(t, esc, "/busy?ms=60000"); rec.Code != http.StatusOK {
		t.Fatalf("POST /busy status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := post(t, esc, "/infer"); rec.Code != http.StatusOK {
		t.Fatalf("POST /infer status %d: %s", rec.Code, rec.Body.String())
	}
	var pred pcnn.FleetModelPrediction
	if err := json.Unmarshal(get(t, esc, "/predict?model=AlexNet").Body.Bytes(), &pred); err != nil {
		t.Fatal(err)
	}
	if !pred.Degraded || pred.Level <= pred.BaseLevel {
		t.Fatalf("server did not escalate: %+v", pred)
	}
	if code, healthy, _ := healthz(t, esc); code != http.StatusOK || healthy != 1 {
		t.Errorf("/healthz on an escalated daemon: %d, %d healthy; want 200, 1", code, healthy)
	}

	// A chaos deployment whose every launch fails trips the breaker and
	// takes the daemon's only replica out.
	chaos, ch := newTestDaemon(t, append(taggingDaemon, "-batch", "1", "-breaker", "1",
		"-breaker-cooldown-ms", "60000", "-fault-spec", "seed=3,launch=1")...)
	if rec := post(t, ch, "/infer"); rec.Code != http.StatusInternalServerError {
		t.Fatalf("POST /infer under launch=1 status %d, want 500", rec.Code)
	}
	if code, healthy, total := healthz(t, ch); code != http.StatusServiceUnavailable || healthy != 0 || total != 1 {
		t.Fatalf("/healthz on a tripped daemon: %d, %d/%d replicas; want 503, 0/1", code, healthy, total)
	}
	var snap pcnn.FleetSnapshot
	if err := json.Unmarshal(get(t, ch, "/fleet").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if r := snap.Replicas[0]; r.Healthy || len(r.Reasons) != 1 || r.Reasons[0] != "AlexNet: circuit breaker open" {
		t.Fatalf("tripped replica reports %+v", r)
	}

	// The chaos deployment also exports its injected-fault tallies.
	if !strings.Contains(get(t, ch, "/metrics").Body.String(), `pcnn_serve_injected_faults_total{kind="launch"`) {
		t.Error("/metrics missing injected-fault counter on a chaos deployment")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := chaos.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if code, healthy, _ := healthz(t, ch); code != http.StatusServiceUnavailable || healthy != 0 {
		t.Fatalf("/healthz on a closed daemon: %d, %d healthy; want 503, 0", code, healthy)
	}
	if err := json.Unmarshal(get(t, ch, "/fleet").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if r := snap.Replicas[0]; len(r.Reasons) != 1 || r.Reasons[0] != "node closed" {
		t.Fatalf("closed replica reports %+v", r)
	}
}

// TestServeFlagsReachEveryMode: with or without -fleet, every serving
// flag lands in the one serve.Config the daemon's nodes build their
// servers from, and that config is what the servers run under.
func TestServeFlagsReachEveryMode(t *testing.T) {
	flags := []struct {
		args []string
		got  func(pcnn.ServeConfig) any
		want any
	}{
		{[]string{"-reject=false"}, func(c pcnn.ServeConfig) any { return c.RejectUnmeetable }, false},
		{[]string{"-retries", "3"}, func(c pcnn.ServeConfig) any { return c.MaxRetries }, 3},
		{[]string{"-exec-timeout-ms", "7.5"}, func(c pcnn.ServeConfig) any { return c.ExecTimeoutMS }, 7.5},
		{[]string{"-breaker", "8"}, func(c pcnn.ServeConfig) any { return c.BreakerThreshold }, 8},
		{[]string{"-breaker-cooldown-ms", "125"}, func(c pcnn.ServeConfig) any { return c.BreakerCooldownMS }, 125.0},
		{[]string{"-fault-spec", "seed=42,sat=1"}, func(c pcnn.ServeConfig) any { return c.Faults != nil }, true},
		{[]string{"-batch", "3"}, func(c pcnn.ServeConfig) any { return c.MaxBatch }, 3},
		{[]string{"-queue", "17"}, func(c pcnn.ServeConfig) any { return c.QueueCap }, 17},
		{[]string{"-workers", "5"}, func(c pcnn.ServeConfig) any { return c.Workers }, 5},
		{[]string{"-pace", "0.25"}, func(c pcnn.ServeConfig) any { return c.Pace }, 0.25},
		{[]string{"-nodegrade"}, func(c pcnn.ServeConfig) any { return c.DisableDegrade }, true},
	}
	for mode, args := range map[string][]string{
		"fleet0": {"-net", "AlexNet", "-platform", "TX1", "-task", "tagging"},
		"fleet2": {"-fleet", "2", "-fleet-platforms", "TX1,GTX970m"},
	} {
		for _, f := range flags {
			args = append(args, f.args...)
		}
		cfg, err := parseFlags(args).serveConfig()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range flags {
			if got := f.got(cfg); got != f.want {
				t.Errorf("%s: %v gives %v, want %v", mode, f.args, got, f.want)
			}
		}
		// What the servers show of their config agrees: the batch cap in
		// every model's prediction, the saturating injector refusing every
		// admission as queue-full.
		fl, h := newTestDaemon(t, args...)
		preds := fl.PredictAll(0)
		for _, p := range preds {
			if p.MaxBatch != 3 {
				t.Errorf("%s: %s serves with batch cap %d, want 3", mode, p.Model, p.MaxBatch)
			}
			if rec := post(t, h, "/infer?model="+p.Model); rec.Code != http.StatusTooManyRequests {
				t.Errorf("%s: POST /infer for %s under sat=1 status %d, want 429", mode, p.Model, rec.Code)
			}
		}
		if want := map[string]int{"fleet0": 1, "fleet2": 3}[mode]; len(preds) != want {
			t.Errorf("%s: %d models predicted, want %d", mode, len(preds), want)
		}
	}
}

func TestDebugMuxServesPprof(t *testing.T) {
	mux := debugMux()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "goroutine") {
		t.Error("pprof index missing profile listing")
	}
}
