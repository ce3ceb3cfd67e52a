package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"pcnn"
)

func TestFleetDaemonEndpoints(t *testing.T) {
	// Two replicas over the two Jetson-class platforms (cheapest to
	// compile).
	fl, h := newTestDaemon(t, "-fleet", "2", "-fleet-platforms", "TX1,GTX970m", "-workers", "1", "-batch", "4")

	// Route a few background-model requests through the HTTP path.
	for i := 0; i < 4; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
			"/infer?model=GoogLeNet&client=c"+string(rune('0'+i)), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /infer %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if rec.Header().Get("X-Pcnn-Replica") == "" {
			t.Error("response missing the serving-replica header")
		}
	}

	// GET /fleet: membership, models, counters.
	rec := get(t, h, "/fleet")
	if rec.Code != http.StatusOK {
		t.Fatalf("/fleet status %d", rec.Code)
	}
	var snap pcnn.FleetSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Replicas) != 2 || len(snap.Models) != 3 {
		t.Errorf("snapshot shows %d replicas / %d models, want 2 / 3",
			len(snap.Replicas), len(snap.Models))
	}
	if snap.Requests != 4 {
		t.Errorf("snapshot counted %d requests, want 4", snap.Requests)
	}

	// GET /healthz: both replicas healthy.
	rec = get(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", rec.Code, rec.Body.String())
	}

	// GET /metrics: fleet counters plus replica-labelled serve families.
	rec = get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"pcnn_fleet_requests_total", `replica="replica-0"`, "pcnn_serve_requests_total"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// POST /swap: hot-swap GoogLeNet to version 2 and keep serving.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/swap?model=GoogLeNet", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/swap status %d: %s", rec.Code, rec.Body.String())
	}
	var sw struct {
		Model   string `json:"model"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Version != 2 {
		t.Errorf("post-swap version = %d, want 2", sw.Version)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer?model=GoogLeNet&client=c0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-swap /infer status %d: %s", rec.Code, rec.Body.String())
	}
	if v := fl.Registry().Current("GoogLeNet").Version; v != 2 {
		t.Errorf("registry serves version %d after swap, want 2", v)
	}

	// Unknown model and wrong method answer with client errors.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/swap?model=ghost", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("/swap unknown model status %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer?model=ghost&client=c1", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("/infer unknown model status %d, want 400", rec.Code)
	}
	rec = get(t, h, "/infer")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /infer status %d, want 405", rec.Code)
	}
}

func TestFleetSmokeInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet soak in -short mode")
	}
	if err := runFleetBench(filepath.Join(t.TempDir(), "fleet.json"), 42, 0, true); err != nil {
		t.Error(err)
	}
}
