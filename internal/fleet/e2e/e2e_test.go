package e2e

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcnn/internal/fleet"
	"pcnn/internal/satisfaction"
	"pcnn/internal/serve"
)

// testModels is the mixed-model traffic surface: a real-time and an
// interactive archetype, both compiled for every daemon platform.
func testModels() []Model {
	return []Model{
		{Name: "AlexNet", Task: satisfaction.VideoSurveillance(30)},
		{Name: "VGGNet", Task: satisfaction.AgeDetection()},
	}
}

// cluster is one running e2e topology: N real daemons and an outer
// least-slack + hedging router of HTTPReplicas pointing at them.
type cluster struct {
	h        *Harness
	daemons  []*Daemon
	fl       *fleet.Fleet
	replicas []*fleet.HTTPReplica
}

// startCluster boots n daemons round-robin over a heterogeneous platform
// pool and wires the outer router. Prediction freshness is 25 ms so
// tests can expire the wire cache with a short sleep.
func startCluster(t *testing.T, n int) *cluster {
	t.Helper()
	platforms := []string{"TitanX", "K20c", "GTX970m"}
	h, err := NewHarness(testModels(), platforms, serve.Config{
		Workers:  2,
		LingerMS: 1,
		QueueCap: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)

	reg, err := h.NewRouterRegistry()
	if err != nil {
		t.Fatal(err)
	}
	fl := fleet.New(reg, fleet.Config{
		Policy:         fleet.PolicyLeastSlack,
		Hedge:          true,
		ReadmitAfterMS: 50,
	})
	c := &cluster{h: h, fl: fl}
	for i := 0; i < n; i++ {
		d, err := h.StartDaemon(fmt.Sprintf("d%d", i), platforms[i%len(platforms)])
		if err != nil {
			t.Fatal(err)
		}
		r := fleet.NewHTTPReplicaConfig(d.ID(), d.Platform(), d.URL(),
			fleet.HTTPReplicaConfig{Weight: 100, FreshnessMS: 25})
		if err := fl.AddReplica(r); err != nil {
			t.Fatal(err)
		}
		c.daemons = append(c.daemons, d)
		c.replicas = append(c.replicas, r)
	}
	return c
}

// submitWait routes one request and waits it out.
func (c *cluster) submitWait(ctx context.Context, model, key string) (serve.Result, string, error) {
	ff, err := c.fl.Submit(model, key)
	if err != nil {
		return serve.Result{}, "", err
	}
	return ff.Wait(ctx)
}

// daemonByID finds a cluster daemon by its replica ID.
func (c *cluster) daemonByID(id string) *Daemon {
	for _, d := range c.daemons {
		if d.ID() == id {
			return d
		}
	}
	return nil
}

// TestE2ELivePredictionsAndBusyOrdering is the tentpole acceptance: Eq 12
// predictions cross the wire from real daemons (live, non-zero, under
// load), and a remote replica whose daemon declares a busy horizon loses
// the least-slack ordering — the hedge leg lands on the one daemon that
// stayed free.
func TestE2ELivePredictionsAndBusyOrdering(t *testing.T) {
	c := startCluster(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Warm: mixed-model traffic through the full wire path.
	for i := 0; i < 12; i++ {
		model := c.h.Models()[i%2]
		if _, _, err := c.submitWait(ctx, model, fmt.Sprintf("warm-%d", i)); err != nil {
			t.Fatalf("warm request %d (%s): %v", i, model, err)
		}
	}

	// Every remote replica must answer a live, non-zero Eq 12 prediction.
	for _, r := range c.replicas {
		if p := r.PredictCompletionMS("AlexNet"); p <= 0 {
			t.Fatalf("replica %s: PredictCompletionMS = %g, want live > 0", r.ID(), p)
		}
	}

	// An idle fleet must not hedge: predictions sit inside the 33 ms
	// real-time deadline.
	ff, err := c.fl.Submit("AlexNet", "pin")
	if err != nil {
		t.Fatal(err)
	}
	if len(ff.Legs()) > 1 {
		t.Fatal("idle fleet hedged; predictions should clear the deadline")
	}
	primary := ff.Legs()[0].Replica()
	if _, _, err := ff.Wait(ctx); err != nil {
		t.Fatalf("pin request: %v", err)
	}

	// Declare a 5-second busy horizon on the primary's daemon and on one
	// fallback, leaving exactly one daemon free.
	var free string
	busy := []string{primary}
	for _, d := range c.daemons {
		if d.ID() != primary {
			if free == "" {
				free = d.ID()
			} else {
				busy = append(busy, d.ID())
			}
		}
	}
	for _, id := range busy {
		resp, err := http.Post(c.daemonByID(id).URL()+"/busy?model=AlexNet&ms=5000", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /busy to %s: %s", id, resp.Status)
		}
	}
	time.Sleep(30 * time.Millisecond) // expire the 25 ms prediction cache

	// The busy daemons' wire predictions inflate past the horizon; the
	// free daemon's stays cheap — that is the least-slack order flipping.
	for _, id := range busy {
		if p := c.replicaByID(id).PredictCompletionMS("AlexNet"); p < 1000 {
			t.Fatalf("busy replica %s predicts %.1f ms, want ≥ 1000", id, p)
		}
	}
	freePred := c.replicaByID(free).PredictCompletionMS("AlexNet")
	if freePred <= 0 || freePred >= 1000 {
		t.Fatalf("free replica %s predicts %.1f ms, want small and live", free, freePred)
	}

	// Same key → same ring primary, now predicting a deadline miss: the
	// hedge fires, and least-slack routes it to the free daemon, not to
	// the busy fallback that used to sort ahead.
	ff, err = c.fl.Submit("AlexNet", "pin")
	if err != nil {
		t.Fatal(err)
	}
	if len(ff.Legs()) < 2 {
		t.Fatal("busy primary did not trigger a hedge")
	}
	if got := ff.Legs()[0].Replica(); got != primary {
		t.Fatalf("ring moved: primary %s, was %s", got, primary)
	}
	if got := ff.Legs()[1].Replica(); got != free {
		t.Fatalf("hedge landed on %s, want the free daemon %s", got, free)
	}
	if _, _, err := ff.Wait(ctx); err != nil {
		t.Fatalf("hedged request: %v", err)
	}
}

// replicaByID finds a cluster replica by ID.
func (c *cluster) replicaByID(id string) *fleet.HTTPReplica {
	for _, r := range c.replicas {
		if r.ID() == id {
			return r
		}
	}
	return nil
}

// TestE2EKillRestartEjectionReadmission kills a real daemon mid-run and
// brings it back on the same address: the health sweep ejects it (reason
// class "unreachable"), routing avoids it while down, and the cooldown
// readmits it to the ring where it serves again.
func TestE2EKillRestartEjectionReadmission(t *testing.T) {
	c := startCluster(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i := 0; i < 6; i++ {
		if _, _, err := c.submitWait(ctx, "AlexNet", fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("warm request %d: %v", i, err)
		}
	}

	victim := c.daemons[1]
	if err := victim.Kill(); err != nil {
		t.Fatal(err)
	}
	ok, reasons := c.replicas[1].Healthy()
	if ok {
		t.Fatal("killed daemon still reports healthy")
	}
	if len(reasons) == 0 || !strings.HasPrefix(reasons[0], "unreachable: ") {
		t.Fatalf("killed daemon reasons = %v, want an %q prefix", reasons, "unreachable: ")
	}
	if ej, _ := c.fl.CheckHealth(); ej != 1 {
		t.Fatalf("health sweep ejected %d, want 1", ej)
	}

	// Routing while down: every request succeeds and no leg targets the
	// dead daemon.
	for i := 0; i < 12; i++ {
		ff, err := c.fl.Submit("AlexNet", fmt.Sprintf("down-%d", i))
		if err != nil {
			t.Fatalf("submit with daemon down: %v", err)
		}
		for _, leg := range ff.Legs() {
			if leg.Replica() == victim.ID() {
				t.Fatalf("request %d routed to ejected daemon %s", i, victim.ID())
			}
		}
		if _, _, err := ff.Wait(ctx); err != nil {
			t.Fatalf("request %d with daemon down: %v", i, err)
		}
	}

	// Restart on the original address, wait out the cooldown, readmit.
	if err := victim.Restart(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if _, re := c.fl.CheckHealth(); re != 1 {
		t.Fatalf("health sweep readmitted %d, want 1", re)
	}
	if ok, reasons := c.replicas[1].Healthy(); !ok {
		t.Fatalf("restarted daemon unhealthy: %v", reasons)
	}

	// The readmitted daemon takes traffic again: sweep keys until a leg
	// lands on it.
	served := false
	for i := 0; i < 64 && !served; i++ {
		ff, err := c.fl.Submit("AlexNet", fmt.Sprintf("back-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for _, leg := range ff.Legs() {
			if leg.Replica() == victim.ID() {
				served = true
			}
		}
		if _, _, err := ff.Wait(ctx); err != nil {
			t.Fatalf("request after readmission: %v", err)
		}
	}
	if !served {
		t.Fatal("readmitted daemon never took traffic across 64 keys")
	}
}

// TestE2EConservationUnderChurn is the race-enabled conservation test:
// concurrent clients drive mixed-model traffic while a chaos goroutine
// kills and restarts a daemon; every submitted request must resolve —
// Submitted == Completed + Failed + Rejected fleet-wide, nothing lost.
func TestE2EConservationUnderChurn(t *testing.T) {
	c := startCluster(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	iters := 60
	if testing.Short() {
		iters = 15
	}
	const clients = 8
	var submitted, completed, failed, rejected atomic.Uint64

	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				model := c.h.Models()[(cl+i)%2]
				submitted.Add(1)
				ff, err := c.fl.Submit(model, fmt.Sprintf("client-%d", cl))
				if err != nil {
					rejected.Add(1)
					continue
				}
				if _, _, err := ff.Wait(ctx); err != nil {
					failed.Add(1)
				} else {
					completed.Add(1)
				}
			}
		}(cl)
	}

	// Chaos: kill/restart daemon d1 while the clients run, sweeping
	// health around each transition so ejection and readmission both
	// happen over real HTTP mid-traffic.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		for round := 0; round < 3; round++ {
			time.Sleep(15 * time.Millisecond)
			if err := c.daemons[1].Kill(); err != nil {
				t.Errorf("chaos kill: %v", err)
				return
			}
			c.fl.CheckHealth()
			time.Sleep(60 * time.Millisecond)
			if err := c.daemons[1].Restart(); err != nil {
				t.Errorf("chaos restart: %v", err)
				return
			}
			c.fl.CheckHealth()
		}
	}()

	wg.Wait()
	<-chaosDone

	total := completed.Load() + failed.Load() + rejected.Load()
	if submitted.Load() != total {
		t.Fatalf("conservation violated: %d submitted != %d completed + %d failed + %d rejected",
			submitted.Load(), completed.Load(), failed.Load(), rejected.Load())
	}
	if completed.Load() == 0 {
		t.Fatal("nothing completed under churn")
	}

	// Daemon-side conservation: each running daemon's own counters must
	// balance once the traffic drains.
	deadline := time.Now().Add(5 * time.Second)
	for i, d := range c.daemons {
		if !d.Running() {
			continue
		}
		for _, model := range c.h.Models() {
			for {
				snap, ok := c.replicas[i].Stats(model)
				if !ok {
					// A restarted daemon may have served nothing since it
					// came back — no counters, nothing to violate.
					break
				}
				if snap.Submitted == snap.Completed+snap.Failed {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("daemon %s %s: %d submitted != %d completed + %d failed",
						d.ID(), model, snap.Submitted, snap.Completed, snap.Failed)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
}
