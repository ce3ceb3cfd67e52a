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

// newTestServer deploys a compile-only AlexNet/TX1/tagging server and
// drives a few requests through it so every observability surface has
// data.
func newTestServer(t *testing.T) (*pcnn.Server, http.Handler) {
	t.Helper()
	fw, err := deploy("AlexNet", "TX1", pcnn.ImageTagging(), false)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fw.Serve(pcnn.ServeConfig{Workers: 1, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	return srv, newHandler(srv)
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestDaemonObservabilityEndpoints(t *testing.T) {
	srv, h := newTestServer(t)

	// Serve a few requests through the HTTP path itself.
	for i := 0; i < 6; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /infer %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}

	// /metrics: Prometheus text format carrying the acceptance metrics.
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != prometheusContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, prometheusContentType)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"pcnn_serve_queue_depth",
		`pcnn_serve_requests_total{outcome="completed"} 6`,
		`pcnn_serve_response_ms_bucket{level=`,
		"pcnn_serve_escalations_total",
		"pcnn_serve_calibrations_total",
		"pcnn_serve_throughput_rps",
		`pcnn_gemm_backend_active{backend="blocked"}`,
		`pcnn_gemm_backend_active{backend="serial"}`,
		"pcnn_gemm_tile_mc",
		"pcnn_gemm_tile_nr",
		"pcnn_gemm_workers",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /trace: recent traces with the full stage lifecycle.
	rec = get(t, h, "/trace?n=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("/trace status %d: %s", rec.Code, rec.Body.String())
	}
	var traces []struct {
		ID     uint64 `json:"id"`
		Stages []struct {
			Name string `json:"name"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
		t.Fatalf("/trace decode: %v", err)
	}
	if len(traces) != 3 {
		t.Fatalf("/trace?n=3 returned %d traces", len(traces))
	}
	if got := len(traces[0].Stages); got != 5 {
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
	var prof []struct {
		Name        string  `json:"name"`
		PredictedMS float64 `json:"predicted_ms"`
		TimeMS      float64 `json:"time_ms"`
		EnergyJ     float64 `json:"energy_j"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &prof); err != nil {
		t.Fatalf("/profile decode: %v", err)
	}
	if len(prof) == 0 {
		t.Fatal("/profile returned no layers")
	}
	for _, lp := range prof {
		if lp.Name == "" || lp.TimeMS <= 0 || lp.EnergyJ <= 0 || lp.PredictedMS <= 0 {
			t.Errorf("degenerate profile entry: %+v", lp)
		}
	}

	// /predict: the live Eq 12 serving forecast, priced for a batch.
	rec = get(t, h, "/predict?batch=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("/predict status %d: %s", rec.Code, rec.Body.String())
	}
	var pred pcnn.ServePrediction
	if err := json.Unmarshal(rec.Body.Bytes(), &pred); err != nil {
		t.Fatalf("/predict decode: %v", err)
	}
	if pred.CapacityRPS <= 0 || pred.MaxBatch <= 0 || pred.BatchMS <= 0 {
		t.Errorf("degenerate prediction: %+v", pred)
	}
	if rec := get(t, h, "/predict?batch=-1"); rec.Code != http.StatusBadRequest {
		t.Errorf("/predict?batch=-1 status %d, want 400", rec.Code)
	}

	// /stats still reports the JSON snapshot, now with the new fields.
	rec = get(t, h, "/stats")
	var snap pcnn.ServeSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/stats decode: %v", err)
	}
	if snap.Completed != 6 {
		t.Errorf("/stats completed = %d, want 6", snap.Completed)
	}
	if snap.LifetimeRPS <= 0 {
		t.Errorf("/stats lifetime_rps = %v, want > 0", snap.LifetimeRPS)
	}

	_ = srv
}

// TestHealthzLifecycle: /healthz answers 200 with a JSON health view on
// a healthy server, 503 with reasons when the circuit breaker trips
// under injected faults, and 503 "closed" once draining starts.
func TestHealthzLifecycle(t *testing.T) {
	srv, h := newTestServer(t)

	rec := get(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz status %d on a healthy server: %s", rec.Code, rec.Body.String())
	}
	var health pcnn.ServeHealth
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("/healthz decode: %v", err)
	}
	if health.Status != "ok" || health.Degraded || health.Breaker != "closed" {
		t.Fatalf("healthy server reports %+v", health)
	}

	// A chaos deployment whose every launch fails trips the breaker and
	// degrades /healthz.
	inj, err := pcnn.NewFaultInjector(pcnn.FaultSpec{Seed: 3, Launch: 1})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := deploy("AlexNet", "TX1", pcnn.ImageTagging(), false)
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := fw.Serve(pcnn.ServeConfig{
		Workers: 1, MaxBatch: 1, BreakerThreshold: 1, BreakerCooldownMS: 60000,
		Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch := newHandler(chaos)
	rec = httptest.NewRecorder()
	ch.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("POST /infer under launch=1 status %d, want 500", rec.Code)
	}
	rec = get(t, ch, "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz status %d on a tripped server, want 503", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("/healthz decode: %v", err)
	}
	if health.Status != "degraded" || !health.Degraded || health.Breaker != "open" ||
		len(health.Reasons) == 0 {
		t.Fatalf("tripped server reports %+v", health)
	}

	// The chaos deployment also exports its injected-fault tallies.
	rec = get(t, ch, "/metrics")
	if !strings.Contains(rec.Body.String(), `pcnn_serve_injected_faults_total{kind="launch"}`) {
		t.Error("/metrics missing injected-fault counter on a chaos deployment")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := chaos.Close(ctx); err != nil {
		t.Fatal(err)
	}
	rec = get(t, ch, "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz status %d on a closed server, want 503", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("/healthz decode: %v", err)
	}
	if health.Status != "closed" {
		t.Fatalf("closed server reports %+v", health)
	}

	_ = srv
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
