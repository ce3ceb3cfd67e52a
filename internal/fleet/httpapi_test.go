package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pcnn/internal/fault"
	"pcnn/internal/satisfaction"
	"pcnn/internal/serve"
)

// TestPredictGoldenWireFormat pins the exact /predict payload bytes: the
// remote-prediction protocol HTTPReplica parses. A change here is a wire
// format change and must version the protocol, not silently reshape it.
func TestPredictGoldenWireFormat(t *testing.T) {
	clk := newTclock()
	execs := []*stormExec{{predMS: 2}}
	fl, _ := testFleet(t, "m", satisfaction.ImageTagging(), execs,
		func(i int) NodeConfig {
			return NodeConfig{Serve: serve.Config{
				Workers: 1, ManualFlush: true, Clock: clk.Now,
			}}
		}, Config{Clock: clk.Now})
	defer fl.Close(context.Background())
	ts := httptest.NewServer(Handler(fl))
	defer ts.Close()

	// Two queued requests and a declared 250 ms busy horizon: every
	// prediction field is now non-trivial and fully deterministic.
	for i := 0; i < 2; i++ {
		if _, err := fl.Submit("m", "client-1"); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+"/busy?model=m&ms=250", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /busy answered %s", resp.Status)
	}

	resp, err = http.Get(ts.URL + "/predict?model=m&batch=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	golden := `{
  "model": "m",
  "version": 1,
  "replica": "n0",
  "platform": "pf0",
  "degraded": false,
  "predict_ms": 256,
  "batch_ms": 6,
  "capacity_rps": 500,
  "level": 0,
  "base_level": 0,
  "queue_depth": 2,
  "busy_ms": 250,
  "max_batch": 4
}
`
	if string(body) != golden {
		t.Errorf("golden /predict payload changed:\n got: %s\nwant: %s", body, golden)
	}
}

// TestPredictAggregatesAcrossReplicas pins the fleet-level view: the
// best replica supplies the prediction, capacity and queue depth sum
// over the active set, and /predict without model= lists every model.
func TestPredictAggregatesAcrossReplicas(t *testing.T) {
	clk := newTclock()
	execs := []*stormExec{{predMS: 5}, {predMS: 1}}
	fl, nodes := testFleet(t, "m", satisfaction.ImageTagging(), execs,
		func(i int) NodeConfig {
			return NodeConfig{Serve: serve.Config{
				Workers: 1, ManualFlush: true, Clock: clk.Now,
			}}
		}, Config{Clock: clk.Now})
	defer fl.Close(context.Background())

	p, err := fl.Predict("m", 0)
	if err != nil {
		t.Fatal(err)
	}
	// n1 (1 ms/image) predicts faster than n0 (5 ms/image).
	if p.Replica != "n1" || p.Platform != "pf1" {
		t.Errorf("best replica = %s/%s, want n1/pf1", p.Replica, p.Platform)
	}
	var wantCap float64
	for _, n := range nodes {
		wantCap += n.CapacityRPS("m")
	}
	if p.CapacityRPS != wantCap {
		t.Errorf("CapacityRPS = %.3f, want summed %.3f", p.CapacityRPS, wantCap)
	}

	// Queue depth sums over replicas: park two requests on slow n0.
	if _, err := nodes[0].Submit("m"); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].Submit("m"); err != nil {
		t.Fatal(err)
	}
	p, err = fl.Predict("m", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.QueueDepth != 2 {
		t.Errorf("QueueDepth = %d, want 2", p.QueueDepth)
	}
	if p.Replica != "n1" {
		t.Errorf("best replica moved to %s", p.Replica)
	}

	if _, err := fl.Predict("ghost", 0); err == nil {
		t.Error("Predict of unregistered model should fail")
	}
	if all := fl.PredictAll(0); len(all) != 1 || all[0].Model != "m" {
		t.Errorf("PredictAll = %+v, want one row for m", all)
	}
}

// TestStatsAndBusyEndpoints covers the /stats map shape and /busy
// validation.
func TestStatsAndBusyEndpoints(t *testing.T) {
	clk := newTclock()
	execs := []*stormExec{{predMS: 2}}
	fl, nodes := testFleet(t, "m", satisfaction.ImageTagging(), execs,
		func(i int) NodeConfig {
			return NodeConfig{Serve: serve.Config{
				Workers: 1, ManualFlush: true, Clock: clk.Now,
			}}
		}, Config{Clock: clk.Now})
	defer fl.Close(context.Background())
	ts := httptest.NewServer(Handler(fl))
	defer ts.Close()

	// Build the server so stats exist, and queue one request.
	if _, err := nodes[0].Submit("m"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/stats?model=m")
	if err != nil {
		t.Fatal(err)
	}
	var byReplica map[string]serve.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&byReplica); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st, ok := byReplica["n0"]; !ok || st.Submitted != 1 || st.QueueDepth != 1 {
		t.Errorf("/stats?model=m = %+v, want n0 with 1 queued", byReplica)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var all map[string]map[string]serve.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := all["m"]["n0"]; !ok {
		t.Errorf("/stats = %+v, want m/n0 entry", all)
	}

	for _, bad := range []string{
		"/busy?model=m",          // missing ms
		"/busy?model=m&ms=-1",    // negative
		"/busy?model=ghost&ms=5", // unknown model
	} {
		resp, err := http.Post(ts.URL+bad, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s answered %s, want 400", bad, resp.Status)
		}
	}
	resp, err = http.Get(ts.URL + "/busy?model=m&ms=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /busy answered %s, want 405", resp.Status)
	}

	resp, err = http.Post(ts.URL+"/busy?model=m&ms=75", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"servers": 1`) {
		t.Errorf("POST /busy = %s, want one server marked", body)
	}
	srv, _, err := nodes[0].Server("m")
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Predict(0).BusyMS; got != 75 {
		t.Errorf("busy horizon = %.3f ms, want 75", got)
	}
}

// do issues one request against a test daemon and returns status and body.
func do(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestInferShedIs429: admission shedding crosses the mux as 429 — the
// replicas' refusal survives Fleet.Submit — while an unknown model is the
// client's error and a fleet with nothing to route to is 503.
func TestInferShedIs429(t *testing.T) {
	clk := newTclock()
	nodeCfg := func(c NodeConfig) func(int) NodeConfig {
		c.Serve.Workers, c.Serve.ManualFlush, c.Serve.Clock = 1, true, clk.Now
		return func(int) NodeConfig { return c }
	}

	// 100 ms/image can never meet the 33 ms surveillance deadline.
	unmeetable, _ := testFleet(t, "m", satisfaction.VideoSurveillance(30), []*stormExec{{predMS: 100}},
		nodeCfg(NodeConfig{Serve: serve.Config{RejectUnmeetable: true}}), Config{Clock: clk.Now})
	defer unmeetable.Close(context.Background())
	if _, err := unmeetable.Submit("m", "c"); !errors.Is(err, serve.ErrDeadlineUnmeetable) {
		t.Errorf("Submit = %v, want it to wrap ErrDeadlineUnmeetable", err)
	}

	// Injected saturation refuses every admission as queue-full.
	saturated, err := fault.New(fault.Spec{Saturate: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, _ := testFleet(t, "m", satisfaction.ImageTagging(), []*stormExec{{predMS: 1}},
		nodeCfg(NodeConfig{Faults: saturated}), Config{Clock: clk.Now})
	defer full.Close(context.Background())
	if _, err := full.Submit("m", "c"); !errors.Is(err, serve.ErrQueueFull) {
		t.Errorf("Submit = %v, want it to wrap ErrQueueFull", err)
	}

	reg := NewRegistry()
	d, err := NewDeployment("m", satisfaction.ImageTagging(), map[string]serve.Executor{"p": &stormExec{predMS: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(d); err != nil {
		t.Fatal(err)
	}
	empty := New(reg, Config{})

	for _, tc := range []struct {
		name string
		fl   *Fleet
		path string
		want int
	}{
		{"unmeetable deadline", unmeetable, "/infer?model=m", http.StatusTooManyRequests},
		{"queue full", full, "/infer?model=m", http.StatusTooManyRequests},
		{"unknown model", full, "/infer?model=ghost", http.StatusBadRequest},
		{"empty fleet", empty, "/infer?model=m", http.StatusServiceUnavailable},
	} {
		ts := httptest.NewServer(Handler(tc.fl))
		if code, body := do(t, http.MethodPost, ts.URL+tc.path); code != tc.want {
			t.Errorf("%s: POST %s answered %d (%s), want %d", tc.name, tc.path, code, strings.TrimSpace(body), tc.want)
		}
		ts.Close()
	}
}

// TestDefaultModel: on a one-model daemon every endpoint that selects one
// model resolves an absent model= to it; with two registered the same
// requests are 400s naming the choices.
func TestDefaultModel(t *testing.T) {
	clk := newTclock()
	fl, nodes := testFleet(t, "only", satisfaction.ImageTagging(), []*stormExec{{predMS: 2}},
		func(int) NodeConfig {
			return NodeConfig{Serve: serve.Config{Workers: 1, MaxBatch: 1, Clock: clk.Now}}
		}, Config{Clock: clk.Now})
	defer fl.Close(context.Background())
	ts := httptest.NewServer(Handler(fl))
	defer ts.Close()

	requests := []struct{ method, path string }{
		{http.MethodPost, "/infer"},
		{http.MethodGet, "/trace"},
		{http.MethodPost, "/busy?ms=0"},
		{http.MethodGet, "/profile"}, // stormExec cannot profile: resolved, then 501
		{http.MethodPost, "/swap"},   // "only" is no network shape: resolved, then 500
	}
	want := []int{http.StatusOK, http.StatusOK, http.StatusOK, http.StatusNotImplemented, http.StatusInternalServerError}
	for i, rq := range requests {
		code, body := do(t, rq.method, ts.URL+rq.path)
		if code != want[i] {
			t.Errorf("one model: %s %s answered %d (%s), want %d", rq.method, rq.path, code, strings.TrimSpace(body), want[i])
		}
		if rq.path == "/swap" && !strings.Contains(body, `"only"`) {
			t.Errorf("/swap did not resolve the default model: %s", body)
		}
	}
	if st, ok := nodes[0].Stats("only"); !ok || st.Completed != 1 {
		t.Errorf("default-model /infer not served by the only model: %+v", st)
	}

	second, err := NewDeployment("other", satisfaction.ImageTagging(), map[string]serve.Executor{"pf0": &stormExec{predMS: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Registry().Register(second); err != nil {
		t.Fatal(err)
	}
	for _, rq := range requests {
		code, body := do(t, rq.method, ts.URL+rq.path)
		if code != http.StatusBadRequest || !strings.Contains(body, "[only other]") {
			t.Errorf("two models: %s %s answered %d (%s), want 400 naming both models",
				rq.method, rq.path, code, strings.TrimSpace(body))
		}
	}
}

// TestTraceEndpoint: /trace lists each local node's recent traces under
// its replica ID, bounded by n.
func TestTraceEndpoint(t *testing.T) {
	clk := newTclock()
	fl, _ := testFleet(t, "m", satisfaction.ImageTagging(), []*stormExec{{predMS: 2}, {predMS: 2}},
		func(int) NodeConfig {
			return NodeConfig{Serve: serve.Config{Workers: 1, MaxBatch: 1, Clock: clk.Now}}
		}, Config{Clock: clk.Now})
	defer fl.Close(context.Background())
	ts := httptest.NewServer(Handler(fl))
	defer ts.Close()

	served := map[string]int{}
	for i := 0; i < 8; i++ {
		ff, err := fl.Submit("m", fmt.Sprintf("client-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		_, replica, err := ff.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		served[replica]++
	}
	for _, tc := range []struct {
		query string
		cap   int
	}{{"", 8}, {"&n=1", 1}} {
		code, body := do(t, http.MethodGet, ts.URL+"/trace?model=m"+tc.query)
		if code != http.StatusOK {
			t.Fatalf("/trace%s answered %d: %s", tc.query, code, body)
		}
		var traces map[string][]struct {
			Stages []struct{ Name string } `json:"stages"`
		}
		if err := json.Unmarshal([]byte(body), &traces); err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"n0", "n1"} {
			want := served[id]
			if want > tc.cap {
				want = tc.cap
			}
			if got := len(traces[id]); got != want {
				t.Errorf("/trace%s: %s holds %d traces, want %d (served %d)", tc.query, id, got, want, served[id])
			}
		}
	}
	for _, bad := range []string{"n=0", "n=-2", "n=many"} {
		if code, _ := do(t, http.MethodGet, ts.URL+"/trace?model=m&"+bad); code != http.StatusBadRequest {
			t.Errorf("/trace?%s answered %d, want 400", bad, code)
		}
	}
}
