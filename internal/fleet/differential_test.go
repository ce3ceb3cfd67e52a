package fleet

import (
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"pcnn/internal/satisfaction"
	"pcnn/internal/serve"
)

// countable lists the snapshot fields HTTPReplica.Stats sums over a
// daemon's replicas, in declaration order.
func countable(s serve.Snapshot) [13]uint64 {
	return [13]uint64{
		s.Submitted, s.Rejected, s.RejectedQueueFull, s.RejectedUnmeetable, s.RejectedSaturated,
		s.Completed, s.Failed, s.Batches, s.DemotedBatches, s.DeadlineMissed,
		uint64(s.QueueDepth), s.Retries, s.ExecTimeouts,
	}
}

// TestNodeAndHTTPReplicaAgree is the differential test between the two
// Replica implementations: an HTTPReplica pointed at a daemon wrapping
// one Node must report what that Node reports — prediction payload,
// completion estimate (less the wire round trip the replica adds),
// capacity, countable stats and health — at every stage of the node's
// life. Everything runs on one injected clock; advancing it past the
// replica's freshness bound is what makes the next read refetch.
func TestNodeAndHTTPReplicaAgree(t *testing.T) {
	clk := newTclock()
	exec := &stormExec{predMS: 2}
	fl, nodes := testFleet(t, "m", satisfaction.ImageTagging(), []*stormExec{exec},
		func(int) NodeConfig {
			return NodeConfig{Serve: serve.Config{
				Workers: 1, ManualFlush: true, Clock: clk.Now,
				BreakerThreshold: 1, BreakerCooldownMS: 1e9,
			}}
		}, Config{Clock: clk.Now})
	defer fl.Close(context.Background())
	node := nodes[0]
	ts := httptest.NewServer(Handler(fl))
	defer ts.Close()
	h := NewHTTPReplicaConfig("n0", "pf0", ts.URL, HTTPReplicaConfig{Clock: clk.Now})
	defer h.Close(context.Background())

	agree := func(stage string) {
		t.Helper()
		clk.Advance(time.Second)
		np, nok := node.Predict("m", 0)
		hp, hok := h.Predict("m", 0)
		if nok != hok || np != hp {
			t.Errorf("%s: Predict differs:\n node %+v (%v)\n wire %+v (%v)", stage, np, nok, hp, hok)
		}
		if n, w := node.PredictCompletionMS("m")+h.wireMS.Value(), h.PredictCompletionMS("m"); n != w {
			t.Errorf("%s: PredictCompletionMS: node + wire RTT = %v, replica = %v", stage, n, w)
		}
		if n, w := node.CapacityRPS("m"), h.CapacityRPS("m"); n != w || n <= 0 {
			t.Errorf("%s: CapacityRPS: node %v, replica %v", stage, n, w)
		}
		ns, nok := node.Stats("m")
		hs, hok := h.Stats("m")
		if nok != hok || countable(ns) != countable(hs) {
			t.Errorf("%s: Stats differ:\n node %v (%v)\n wire %v (%v)", stage, countable(ns), nok, countable(hs), hok)
		}
		nh, nreasons := node.Healthy()
		hh, hreasons := h.Healthy()
		if nh != hh || (len(nreasons) == 0) != (len(hreasons) == 0) {
			t.Errorf("%s: Healthy: node (%v, %v), replica (%v, %v)", stage, nh, nreasons, hh, hreasons)
		}
	}
	serveAll := func(tickets []*Ticket, wantErr bool) {
		t.Helper()
		srv, _, err := node.Server("m")
		if err != nil {
			t.Fatal(err)
		}
		srv.Flush()
		for _, tk := range tickets {
			if _, err := tk.Wait(context.Background()); (err != nil) != wantErr {
				t.Fatalf("leg resolved with %v, want error: %v", err, wantErr)
			}
		}
	}

	agree("fresh")

	var queued []*Ticket
	for i := 0; i < 5; i++ {
		tk, err := node.Submit("m")
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, tk)
	}
	agree("5 queued")
	if p, _ := h.Predict("m", 0); p.QueueDepth != 5 {
		t.Errorf("replica sees queue depth %d, want 5", p.QueueDepth)
	}

	serveAll(queued, false)
	agree("5 served")
	if st, _ := h.Stats("m"); st.Completed != 5 {
		t.Errorf("replica sees %d completed, want 5", st.Completed)
	}

	if code, body := do(t, "POST", ts.URL+"/busy?ms=5000"); code != 200 {
		t.Fatalf("POST /busy answered %d: %s", code, body)
	}
	agree("busy")
	if p, _ := h.Predict("m", 0); p.BusyMS != 4000 {
		t.Errorf("replica sees busy horizon %v ms one second in, want 4000", p.BusyMS)
	}

	exec.failing.Store(true)
	tk, err := node.Submit("m")
	if err != nil {
		t.Fatal(err)
	}
	serveAll([]*Ticket{tk}, true)
	agree("breaker open")
	if ok, reasons := h.Healthy(); ok || !strings.HasPrefix(reasons[0], "degraded: ") {
		t.Errorf("replica over a breaker-open node = (%v, %v)", ok, reasons)
	}
}

// TestLeastSlackOrderAcrossTheWire: a fleet ordering {A, HTTPReplica→B}
// routes every key exactly as the fleet ordering {A, B} in process —
// same ring (the live capacity crosses the wire), same least-slack
// fallback order — as load moves between A and B. Predictions sit
// seconds apart, so the loopback round trip the replica adds cannot
// reorder them.
func TestLeastSlackOrderAcrossTheWire(t *testing.T) {
	clk := newTclock()
	cfg := Config{Policy: PolicyLeastSlack, Clock: clk.Now}
	local, nodes := testFleet(t, "m", satisfaction.ImageTagging(),
		[]*stormExec{{predMS: 5}, {predMS: 1000}, {predMS: 3000}},
		func(int) NodeConfig {
			return NodeConfig{Serve: serve.Config{Workers: 1, ManualFlush: true, Clock: clk.Now}}
		}, cfg)
	defer local.Close(context.Background())

	inner := New(local.Registry(), Config{Clock: clk.Now})
	if err := inner.AddReplica(nodes[2]); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(inner))
	defer ts.Close()
	remote := NewHTTPReplicaConfig("n2", "pf2", ts.URL, HTTPReplicaConfig{Clock: clk.Now})
	defer remote.Close(context.Background())
	wired := New(local.Registry(), cfg)
	for _, r := range []Replica{nodes[0], nodes[1], remote} {
		if err := wired.AddReplica(r); err != nil {
			t.Fatal(err)
		}
	}

	orders := func(fl *Fleet) []string {
		out := make([]string, 64)
		for k := range out {
			var ids []string
			for _, r := range fl.candidates("m", fmt.Sprintf("client-%d", k)) {
				ids = append(ids, r.ID())
			}
			out[k] = strings.Join(ids, ">")
		}
		return out
	}
	compare := func(stage string) []string {
		t.Helper()
		clk.Advance(time.Second)
		want, got := orders(local), orders(wired)
		for k := range want {
			if want[k] != got[k] {
				t.Errorf("%s: key %d routes %s in process, %s across the wire", stage, k, want[k], got[k])
			}
		}
		return want
	}

	idle := compare("idle")
	if !slices.Contains(idle, "n0>n1>n2") {
		t.Fatalf("idle: no key owned by n0 falls back n1 before n2: %v", idle)
	}

	// Ten seconds of declared occupancy on n1 make n2 the cheaper fallback.
	srv, _, err := nodes[1].Server("m")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetBusyUntil(clk.Now().Add(11 * time.Second))
	loaded := compare("n1 busy")
	if !slices.Contains(loaded, "n0>n2>n1") {
		t.Errorf("n1 busy: fallback order behind n0 did not flip: %v", loaded)
	}

	// And a longer horizon declared on the daemon over the wire flips it back.
	if code, body := do(t, "POST", ts.URL+"/busy?ms=60000"); code != 200 {
		t.Fatalf("POST /busy answered %d: %s", code, body)
	}
	if back := compare("n2 busier"); !slices.Contains(back, "n0>n1>n2") {
		t.Errorf("n2 busier: fallback order behind n0 did not flip back: %v", back)
	}
}
