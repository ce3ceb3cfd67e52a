package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
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
// Predict with the wire RTT folded into PredictMS.
func TestHTTPReplicaLivePredictions(t *testing.T) {
	d := &fakeDaemon{pred: ModelPrediction{
		Model: "m", Version: 1, Replica: "remote-0", Platform: "pf0",
		Prediction: serve.Prediction{PredictMS: 40, CapacityRPS: 200, QueueDepth: 3},
	}}
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	clk := newTclock()
	h := NewHTTPReplicaConfig("r0", "pf0", ts.URL, HTTPReplicaConfig{FreshnessMS: 250, Clock: clk.Now})
	defer h.Close(context.Background())

	p, ok := h.Predict("m", 0)
	if !ok || p.QueueDepth != 3 || p.Replica != "remote-0" || p.CapacityRPS != 200 {
		t.Errorf("Predict = (%+v, %v), want the wire payload", p, ok)
	}
	if h.wireMS.Value() <= 0 {
		t.Error("wire RTT EWMA never observed")
	}
	if want := 40 + h.wireMS.Value(); p.PredictMS != want {
		t.Errorf("PredictMS = %.3f, want wire PredictMS 40 + RTT = %.3f", p.PredictMS, want)
	}
	// Within the freshness bound every read is served from cache.
	for i := 0; i < 10; i++ {
		h.Predict("m", 0)
	}
	if hits := d.predictHits(); hits != 1 {
		t.Errorf("daemon polled %d times inside freshness bound, want 1", hits)
	}
	// Past the bound, exactly one refresh happens.
	clk.Advance(300 * time.Millisecond)
	h.Predict("m", 0)
	h.Predict("m", 0)
	if hits := d.predictHits(); hits != 2 {
		t.Errorf("daemon polled %d times after one expiry, want 2", hits)
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
			if p, ok := h.Predict("m", 0); ok && p.PredictMS > 0 {
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
// bound — and unrefreshable — cannot predict and sorts behind every live
// replica in least-slack candidate ordering, so it cannot be picked as
// the hedge target while stale.
func TestHTTPReplicaStalenessDropsOutOfOrdering(t *testing.T) {
	d := &fakeDaemon{pred: ModelPrediction{
		Model: "m", Prediction: serve.Prediction{PredictMS: 1, CapacityRPS: 100},
	}}
	ts := httptest.NewServer(d.handler())
	clk := newTclock()
	h := NewHTTPReplicaConfig("remote", "pfR", ts.URL, HTTPReplicaConfig{FreshnessMS: 250, Clock: clk.Now})
	defer h.Close(context.Background())

	if p, ok := h.Predict("m", 0); !ok || p.PredictMS <= 0 {
		t.Fatalf("live prediction = (%+v, %v), want PredictMS > 0", p, ok)
	}

	// Kill the daemon and expire the cache: the replica must read as
	// unknown, not keep advertising its last (stale) 1 ms prediction.
	ts.Close()
	clk.Advance(time.Second)
	if p, ok := h.Predict("m", 0); ok || p != (ModelPrediction{}) {
		t.Fatalf("stale unrefreshable prediction = (%+v, %v), want unknown", p, ok)
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
		h.Predict("m", 0)
	}
	if d.predictHits() != before {
		t.Errorf("stale entry retried inside its freshness window")
	}

	// In a least-slack fleet, the stale remote sorts behind live local
	// nodes even though its zero PredictMS is below any live prediction.
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
	h.Predict("m", 0)

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

// TestHTTPReplicaCancelAbortsPost: a leg's POST runs on the goroutine that
// waits for it, under that Wait's ctx. Cancelling the ctx while the daemon
// stalls returns ctx's error at once, the daemon sees its request
// cancelled, and nothing of the leg outlives it.
func TestHTTPReplicaCancelAbortsPost(t *testing.T) {
	entered, aborted := make(chan struct{}), make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		select {
		case <-r.Context().Done():
			close(aborted)
		case <-time.After(10 * time.Second): // the test has failed; let Close return
		}
	}))
	defer ts.Close()
	h := NewHTTPReplicaConfig("r0", "pf0", ts.URL, HTTPReplicaConfig{})
	defer h.Close(context.Background())
	baseline := runtime.NumGoroutine()

	tk, err := h.Submit("m")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	if _, err := tk.Wait(ctx); err != context.Canceled {
		t.Fatalf("Wait = %v, want %v", err, context.Canceled)
	}
	select {
	case <-aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("the daemon never saw its request cancelled")
	}
	h.Close(context.Background())
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled leg, %d before", runtime.NumGoroutine(), baseline)
		}
	}
}

// TestHedgeLegRunsBesideItsPrimary: a hedged request's two legs are on the
// wire together. Each daemon's /infer answers only once the other's has
// been entered, so waiting the legs one after the other would stall.
func TestHedgeLegRunsBesideItsPrimary(t *testing.T) {
	entered := []chan struct{}{make(chan struct{}), make(chan struct{})}
	fl := New(NewRegistry(), Config{Hedge: true})
	d, err := NewDeployment("m", satisfaction.VideoSurveillance(30), map[string]serve.Executor{"pf0": &stormExec{predMS: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Registry().Register(d); err != nil {
		t.Fatal(err)
	}
	for i := range entered {
		mine, other := entered[i], entered[1-i]
		mux := http.NewServeMux()
		mux.HandleFunc("/predict", func(w http.ResponseWriter, _ *http.Request) {
			// Far past the 33 ms deadline: every request hedges.
			_ = json.NewEncoder(w).Encode(ModelPrediction{Model: "m", Prediction: serve.Prediction{PredictMS: 1e6, CapacityRPS: 100}})
		})
		mux.HandleFunc("/infer", func(w http.ResponseWriter, _ *http.Request) {
			close(mine)
			select {
			case <-other:
			case <-time.After(5 * time.Second):
				http.Error(w, "the other leg never arrived", http.StatusInternalServerError)
				return
			}
			b, _ := appendResult(nil, serve.Result{ID: uint64(i), Batch: 1, ExecMS: 1, ResponseMS: float64(10 + i)})
			_, _ = w.Write(b)
		})
		ts := httptest.NewServer(mux)
		defer ts.Close()
		h := NewHTTPReplicaConfig(fmt.Sprintf("d%d", i), "pf0", ts.URL, HTTPReplicaConfig{})
		defer h.Close(context.Background())
		if err := fl.AddReplica(h); err != nil {
			t.Fatal(err)
		}
	}

	ff, err := fl.Submit("m", "client-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(ff.Legs()) != 2 {
		t.Fatalf("%d legs, want a hedged pair", len(ff.Legs()))
	}
	res, winner, err := ff.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if winner != "d0" || res.ResponseMS != 10 {
		t.Errorf("winner %s with %v ms, want d0 with the faster 10 ms", winner, res.ResponseMS)
	}
}
