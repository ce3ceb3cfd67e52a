package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcnn/internal/satisfaction"
	"pcnn/internal/serve"
)

// fakeDaemon is a canned pcnnd fleet daemon: fixed /predict payloads, a
// hit counter per path, and a settable /healthz.
type fakeDaemon struct {
	mu       sync.Mutex
	predicts int64
	statHits int64
	pred     ModelPrediction
	healthy  int
	total    int
	slow     chan struct{} // non-nil: /predict blocks until closed
	stats    map[string]serve.Snapshot
}

func (d *fakeDaemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		d.predicts++
		slow := d.slow
		p := d.pred
		d.mu.Unlock()
		if slow != nil {
			<-slow
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(p)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		d.statHits++
		st := d.stats
		d.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		healthy, total := d.healthy, d.total
		d.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if healthy == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(struct {
			Healthy int `json:"healthy_replicas"`
			Total   int `json:"total_replicas"`
		}{healthy, total})
	})
	return mux
}

func (d *fakeDaemon) predictHits() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.predicts
}

// TestHTTPReplicaLivePredictions pins the tentpole: predictions cross
// the wire, get cached inside the freshness bound, and surface through
// PredictCompletionMS/CapacityRPS with the wire RTT folded in.
func TestHTTPReplicaLivePredictions(t *testing.T) {
	d := &fakeDaemon{pred: ModelPrediction{
		Model: "m", Version: 1, Replica: "remote-0", Platform: "pf0",
		Prediction: serve.Prediction{PredictMS: 40, CapacityRPS: 200, QueueDepth: 3},
	}}
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	clk := newTclock()
	h := NewHTTPReplicaConfig("r0", "pf0", ts.URL, HTTPReplicaConfig{
		Weight: 50, FreshnessMS: 250, Clock: clk.Now,
	})
	defer h.Close(context.Background())

	got := h.PredictCompletionMS("m")
	if got < 40 {
		t.Errorf("PredictCompletionMS = %.3f, want >= wire PredictMS 40", got)
	}
	if want := 40 + h.wireMS.Value(); got != want {
		t.Errorf("PredictCompletionMS = %.3f, want PredictMS+RTT = %.3f", got, want)
	}
	if h.wireMS.Value() <= 0 {
		t.Error("wire RTT EWMA never observed")
	}
	if cap := h.CapacityRPS("m"); cap != 200 {
		t.Errorf("CapacityRPS = %.3f, want live 200 (not static 50)", cap)
	}
	// Within the freshness bound every read is served from cache.
	for i := 0; i < 10; i++ {
		h.PredictCompletionMS("m")
	}
	if hits := d.predictHits(); hits != 1 {
		t.Errorf("daemon polled %d times inside freshness bound, want 1", hits)
	}
	// Past the bound, exactly one refresh happens.
	clk.Advance(300 * time.Millisecond)
	h.PredictCompletionMS("m")
	h.CapacityRPS("m")
	if hits := d.predictHits(); hits != 2 {
		t.Errorf("daemon polled %d times after one expiry, want 2", hits)
	}
	p, ok := h.Predict("m", 0)
	if !ok || p.QueueDepth != 3 || p.Replica != "remote-0" {
		t.Errorf("Predict = (%+v, %v), want wire payload", p, ok)
	}
}

// TestHTTPReplicaSingleFlight pins the refresh gate: concurrent readers
// against a cold cache produce one poll, not a stampede.
func TestHTTPReplicaSingleFlight(t *testing.T) {
	release := make(chan struct{})
	d := &fakeDaemon{
		pred: ModelPrediction{Model: "m", Prediction: serve.Prediction{PredictMS: 7}},
		slow: release,
	}
	ts := httptest.NewServer(d.handler())
	defer ts.Close()
	h := NewHTTPReplicaConfig("r0", "pf0", ts.URL, HTTPReplicaConfig{FreshnessMS: 1e9})
	defer h.Close(context.Background())

	var wg sync.WaitGroup
	var nonzero atomic.Int64
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if h.PredictCompletionMS("m") > 0 {
				nonzero.Add(1)
			}
		}()
	}
	// Let the goroutines pile onto the in-flight refresh, then release.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if hits := d.predictHits(); hits != 1 {
		t.Errorf("cold concurrent reads hit the daemon %d times, want 1 (single-flight)", hits)
	}
	if nonzero.Load() != 16 {
		t.Errorf("%d/16 readers saw the live prediction", nonzero.Load())
	}
}

// TestHTTPReplicaStalenessDropsOutOfOrdering pins the staleness
// satellite: a replica whose predictions are older than the freshness
// bound — and unrefreshable — reads as unknown (0) and sorts behind
// every live replica in least-slack candidate ordering, so it cannot be
// picked as the hedge target while stale.
func TestHTTPReplicaStalenessDropsOutOfOrdering(t *testing.T) {
	d := &fakeDaemon{pred: ModelPrediction{
		Model: "m", Prediction: serve.Prediction{PredictMS: 1, CapacityRPS: 100},
	}}
	ts := httptest.NewServer(d.handler())
	clk := newTclock()
	h := NewHTTPReplicaConfig("remote", "pfR", ts.URL, HTTPReplicaConfig{
		Weight: 100, FreshnessMS: 250, Clock: clk.Now,
	})
	defer h.Close(context.Background())

	if got := h.PredictCompletionMS("m"); got <= 0 {
		t.Fatalf("live prediction = %.3f, want > 0", got)
	}

	// Kill the daemon and expire the cache: the replica must read as
	// unknown, not keep advertising its last (stale) 1 ms prediction.
	ts.Close()
	clk.Advance(time.Second)
	if got := h.PredictCompletionMS("m"); got != 0 {
		t.Fatalf("stale unrefreshable prediction = %.3f, want 0", got)
	}
	h.mu.Lock()
	staleReads := h.staleReads
	refreshErrs := h.refreshErrs
	h.mu.Unlock()
	if staleReads == 0 || refreshErrs == 0 {
		t.Errorf("staleness counters did not move: stale=%d errs=%d", staleReads, refreshErrs)
	}
	// Within the (failed) entry's freshness window there is no retry storm.
	before := d.predictHits()
	for i := 0; i < 8; i++ {
		h.PredictCompletionMS("m")
	}
	if d.predictHits() != before {
		t.Errorf("stale entry retried inside its freshness window")
	}

	// In a least-slack fleet, the stale remote sorts behind live local
	// nodes even though 0 < any live prediction numerically.
	execs := []*stormExec{{predMS: 5}, {predMS: 5}}
	fl, _ := testFleet(t, "m", satisfaction.ImageTagging(), execs,
		func(i int) NodeConfig {
			return NodeConfig{Serve: serve.Config{Workers: 1, ManualFlush: true, Clock: clk.Now}}
		}, Config{Policy: PolicyLeastSlack, Clock: clk.Now})
	defer fl.Close(context.Background())
	if err := fl.AddReplica(h); err != nil {
		t.Fatal(err)
	}

	// Whatever key we pick, the stale remote must never appear before a
	// live node in the submit order. Submitting always lands on a live
	// node (the remote's daemon is dead, so a leg there would error).
	for i := 0; i < 8; i++ {
		ff, err := fl.Submit("m", fmt.Sprintf("client-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if got := ff.Legs()[0].Replica(); got == "remote" && len(ff.Legs()) > 0 {
			// The ring may still own a key at the remote (ring placement is
			// capacity-weighted, not prediction-weighted) — but then the
			// submit itself fails over. What must not happen is the remote
			// being chosen as least-slack fallback; that is implied by the
			// leg landing on a live node whenever the remote is not the
			// ring owner.
			continue
		}
		if got := ff.Legs()[0].Replica(); got != "n0" && got != "n1" {
			t.Errorf("leg landed on %s, want a live node", got)
		}
	}
}

// TestHTTPReplicaHealthReasons pins the unreachable-vs-degraded reason
// split over the daemon's /healthz payload.
func TestHTTPReplicaHealthReasons(t *testing.T) {
	// Healthy.
	d := &fakeDaemon{healthy: 2, total: 3}
	ts := httptest.NewServer(d.handler())
	h := NewHTTPReplicaConfig("r0", "pf0", ts.URL, HTTPReplicaConfig{})
	if ok, reasons := h.Healthy(); !ok || len(reasons) != 0 {
		t.Errorf("healthy daemon = (%v, %v)", ok, reasons)
	}
	// All replicas down.
	d.mu.Lock()
	d.healthy = 0
	d.mu.Unlock()
	if ok, reasons := h.Healthy(); ok || len(reasons) == 0 || !strings.HasPrefix(reasons[0], "degraded: ") {
		t.Errorf("0-healthy daemon = (%v, %v), want degraded: prefix", ok, reasons)
	}
	// Network-unreachable.
	ts.Close()
	if ok, reasons := h.Healthy(); ok || len(reasons) == 0 || !strings.HasPrefix(reasons[0], "unreachable: ") {
		t.Errorf("dead daemon = (%v, %v), want unreachable: prefix", ok, reasons)
	}
	h.Close(context.Background())

	// An endpoint that answers /healthz in another shape is not a daemon
	// this replica can route to.
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts2.Close()
	h2 := NewHTTPReplicaConfig("r1", "pf0", ts2.URL, HTTPReplicaConfig{})
	defer h2.Close(context.Background())
	if ok, reasons := h2.Healthy(); ok || len(reasons) == 0 || !strings.HasPrefix(reasons[0], "degraded: ") {
		t.Errorf("foreign /healthz = (%v, %v), want degraded: prefix", ok, reasons)
	}
}

// TestHTTPReplicaStatsSumsAcrossReplicas pins the remote snapshot view:
// countable fields sum over the daemon's replicas.
func TestHTTPReplicaStatsSumsAcrossReplicas(t *testing.T) {
	d := &fakeDaemon{stats: map[string]serve.Snapshot{
		"a": {Submitted: 10, Completed: 8, Failed: 1, QueueDepth: 1, Batches: 3},
		"b": {Submitted: 4, Completed: 4, Batches: 2},
	}}
	ts := httptest.NewServer(d.handler())
	defer ts.Close()
	h := NewHTTPReplicaConfig("r0", "pf0", ts.URL, HTTPReplicaConfig{})
	defer h.Close(context.Background())

	st, ok := h.Stats("m")
	if !ok {
		t.Fatal("Stats unavailable")
	}
	if st.Submitted != 14 || st.Completed != 12 || st.Failed != 1 ||
		st.QueueDepth != 1 || st.Batches != 5 {
		t.Errorf("summed snapshot = %+v", st)
	}
	if st.Submitted != st.Completed+st.Failed+uint64(st.QueueDepth) {
		t.Errorf("summed snapshot violates conservation: %+v", st)
	}

	// Empty map (model never served) reads as unavailable.
	d.mu.Lock()
	d.stats = map[string]serve.Snapshot{}
	d.mu.Unlock()
	if _, ok := h.Stats("ghost"); ok {
		t.Error("empty stats map should be unavailable")
	}
}

// closeRecorder observes Close → CloseIdleConnections plumbing.
type closeRecorder struct {
	http.RoundTripper
	closed atomic.Bool
}

func (c *closeRecorder) CloseIdleConnections() { c.closed.Store(true) }

func TestHTTPReplicaCloseReleasesConnections(t *testing.T) {
	rec := &closeRecorder{RoundTripper: http.DefaultTransport}
	h := NewHTTPReplicaConfig("r0", "pf0", "http://127.0.0.1:0", HTTPReplicaConfig{
		Client: &http.Client{Transport: rec},
	})
	if err := h.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !rec.closed.Load() {
		t.Error("Close did not release idle connections")
	}
}

// TestHTTPReplicaMetricsExposition pins that the wire metrics merge into
// the fleet's /metrics output under replica labels.
func TestHTTPReplicaMetricsExposition(t *testing.T) {
	d := &fakeDaemon{pred: ModelPrediction{Model: "m", Prediction: serve.Prediction{PredictMS: 2}}}
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	execs := []*stormExec{{predMS: 5}}
	fl, _ := testFleet(t, "m", satisfaction.ImageTagging(), execs,
		func(i int) NodeConfig {
			return NodeConfig{Serve: serve.Config{Workers: 1, ManualFlush: true}}
		}, Config{})
	defer fl.Close(context.Background())
	h := NewHTTPReplicaConfig("remote", "pfR", ts.URL, HTTPReplicaConfig{})
	if err := fl.AddReplica(h); err != nil {
		t.Fatal(err)
	}
	h.PredictCompletionMS("m")

	var buf strings.Builder
	if err := fl.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"pcnn_fleet_wire_latency_ms",
		"pcnn_fleet_predict_refreshes_total",
		`replica="remote"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
