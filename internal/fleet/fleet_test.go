package fleet

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcnn/internal/satisfaction"
	"pcnn/internal/serve"
	"pcnn/internal/tensor"
)

// stormExec is a deterministic executor whose failures the test flips at
// will — the injected breaker-open storm.
type stormExec struct {
	predMS  float64
	failing atomic.Bool
}

func (e *stormExec) MaxBatch() int              { return 4 }
func (e *stormExec) Levels() int                { return 1 }
func (e *stormExec) Entropy(int) float64        { return 0.1 }
func (e *stormExec) PredictMS(l, n int) float64 { return e.predMS * float64(n) }

func (e *stormExec) Execute(l, n int, _ *tensor.Tensor) (serve.BatchResult, error) {
	if e.failing.Load() {
		return serve.BatchResult{}, errors.New("injected launch failure")
	}
	return serve.BatchResult{TimeMS: e.predMS * float64(n), EnergyJ: 0.01 * float64(n), Entropy: 0.1}, nil
}

// tclock is a settable clock safe for concurrent reads.
type tclock struct {
	mu sync.Mutex
	t  time.Time
}

func newTclock() *tclock { return &tclock{t: time.Unix(1_700_000_000, 0)} }

func (c *tclock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *tclock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testFleet wires n nodes (platforms pf0..pf{n-1}) over one registered
// model backed by per-node executors.
func testFleet(t *testing.T, model string, task satisfaction.Task, execs []*stormExec,
	ncfg func(i int) NodeConfig, fcfg Config) (*Fleet, []*Node) {
	t.Helper()
	exByPlatform := map[string]serve.Executor{}
	for i, e := range execs {
		exByPlatform[fmt.Sprintf("pf%d", i)] = e
	}
	d, err := NewDeployment(model, task, exByPlatform)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Register(d); err != nil {
		t.Fatal(err)
	}
	fl := New(reg, fcfg)
	nodes := make([]*Node, len(execs))
	for i := range execs {
		nodes[i] = NewNode(fmt.Sprintf("n%d", i), fmt.Sprintf("pf%d", i), reg, ncfg(i))
		if err := fl.AddReplica(nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	return fl, nodes
}

func TestRegistryVersioning(t *testing.T) {
	mk := func() *Deployment {
		d, err := NewDeployment("m", satisfaction.ImageTagging(),
			map[string]serve.Executor{"p": &stormExec{predMS: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	reg := NewRegistry()
	if err := reg.Register(mk()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(mk()); err == nil {
		t.Error("duplicate Register should fail")
	}
	if _, err := reg.Swap(&Deployment{Model: "other"}); err == nil {
		t.Error("Swap of unregistered model should fail")
	}
	if v := reg.Current("m").Version; v != 1 {
		t.Fatalf("first version = %d, want 1", v)
	}
	old, err := reg.Swap(mk())
	if err != nil {
		t.Fatal(err)
	}
	if old.Version != 1 || reg.Current("m").Version != 2 || reg.Swaps() != 1 {
		t.Errorf("swap bookkeeping wrong: old v%d, current v%d, swaps %d",
			old.Version, reg.Current("m").Version, reg.Swaps())
	}
	if reg.Current("absent") != nil {
		t.Error("Current of unknown model should be nil")
	}
}

// TestFleetFallbackOnRejection pins the spill path: when the primary's
// admission refuses (deadline unmeetable behind a declared busy horizon),
// the next ring candidate takes the request and the fallback counter
// moves.
func TestFleetFallbackOnRejection(t *testing.T) {
	clk := newTclock()
	execs := []*stormExec{{predMS: 5}, {predMS: 5}}
	fl, nodes := testFleet(t, "m", satisfaction.VideoSurveillance(30), execs,
		func(i int) NodeConfig {
			return NodeConfig{Serve: serve.Config{
				Workers: 1, ManualFlush: true, Clock: clk.Now, RejectUnmeetable: true,
			}}
		}, Config{Clock: clk.Now})

	ff, err := fl.Submit("m", "client-1")
	if err != nil {
		t.Fatal(err)
	}
	primary := ff.Legs()[0].Replica()

	// Park the primary behind a 10 s busy horizon: its 33 ms deadline is
	// now unmeetable at admission, so the same key must spill over.
	for _, n := range nodes {
		if n.ID() == primary {
			srv, _, err := n.Server("m")
			if err != nil {
				t.Fatal(err)
			}
			srv.SetBusyUntil(clk.Now().Add(10 * time.Second))
		}
	}
	ff2, err := fl.Submit("m", "client-1")
	if err != nil {
		t.Fatal(err)
	}
	if got := ff2.Legs()[0].Replica(); got == primary {
		t.Errorf("request stayed on busy primary %s", got)
	}
	if snap := fl.Snapshot(); snap.Fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", snap.Fallbacks)
	}
	if err := fl.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFleetHedging pins the hedge path end to end: a primary predicting a
// deadline miss grows a second leg, and the faster leg wins the future.
func TestFleetHedging(t *testing.T) {
	clk := newTclock()
	execs := []*stormExec{{predMS: 5}, {predMS: 5}}
	fl, nodes := testFleet(t, "m", satisfaction.VideoSurveillance(30), execs,
		func(i int) NodeConfig {
			return NodeConfig{Serve: serve.Config{
				Workers: 1, ManualFlush: true, Clock: clk.Now,
			}}
		}, Config{Hedge: true, Clock: clk.Now})

	probe, err := fl.Submit("m", "client-7")
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.Legs()) > 1 {
		t.Fatal("unloaded primary should not hedge")
	}
	primary := probe.Legs()[0].Replica()
	var primarySrv *serve.Server
	for _, n := range nodes {
		if n.ID() == primary {
			primarySrv, _, err = n.Server("m")
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	primarySrv.SetBusyUntil(clk.Now().Add(time.Second))

	ff, err := fl.Submit("m", "client-7")
	if err != nil {
		t.Fatal(err)
	}
	if len(ff.Legs()) != 2 {
		t.Fatalf("want a hedged 2-leg future, got %d legs", len(ff.Legs()))
	}
	if ff.Legs()[0].Replica() != primary || ff.Legs()[1].Replica() == primary {
		t.Fatalf("legs misrouted: %s then %s (primary %s)",
			ff.Legs()[0].Replica(), ff.Legs()[1].Replica(), primary)
	}

	// Resolve the hedge leg promptly, the primary a simulated second late.
	// The hedge leg is waited before the clock advances so its response
	// time is stamped at the early instant.
	ctx := context.Background()
	ff.Legs()[1].Server().Flush()
	if _, err := ff.Legs()[1].Wait(ctx); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	primarySrv.Flush()
	res, winner, err := ff.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if winner == primary {
		t.Errorf("stalled primary won the hedge (response %.1f ms)", res.ResponseMS)
	}
	snap := fl.Snapshot()
	if snap.Hedges != 1 || snap.HedgeWins != 1 {
		t.Errorf("hedges=%d wins=%d, want 1/1", snap.Hedges, snap.HedgeWins)
	}
	if err := fl.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestLeastSlackOrdersEveryFallback: behind the ring owner the fallbacks
// are ordered by predicted completion time, cheapest first, however many
// there are.
func TestLeastSlackOrdersEveryFallback(t *testing.T) {
	clk := newTclock()
	execs := make([]*stormExec, 6)
	for i := range execs {
		execs[i] = &stormExec{predMS: 5}
	}
	fl, nodes := testFleet(t, "m", satisfaction.ImageTagging(), execs,
		func(int) NodeConfig {
			return NodeConfig{Serve: serve.Config{Workers: 1, ManualFlush: true, Clock: clk.Now}}
		}, Config{Policy: PolicyLeastSlack, Clock: clk.Now})
	defer fl.Close(context.Background())
	// Distinct busy horizons, in neither registration nor ring order.
	for i, n := range nodes {
		srv, _, err := n.Server("m")
		if err != nil {
			t.Fatal(err)
		}
		srv.SetBusyUntil(clk.Now().Add(time.Duration((i*5)%len(nodes)+1) * time.Second))
	}
	for k := 0; k < 32; k++ {
		cands := fl.candidates("m", fmt.Sprintf("client-%d", k), nil)
		if len(cands) != len(nodes) {
			t.Fatalf("key %d: %d candidates, want %d", k, len(cands), len(nodes))
		}
		for i := 2; i < len(cands); i++ {
			a, _ := cands[i-1].Predict("m", 0)
			b, _ := cands[i].Predict("m", 0)
			if a.PredictMS > b.PredictMS {
				t.Fatalf("key %d: fallback %s (%v ms) ahead of %s (%v ms)", k, cands[i-1].ID(), a.PredictMS, cands[i].ID(), b.PredictMS)
			}
		}
	}
}

// TestFleetHotSwapZeroDowntime pins copy-on-write hot-swap: routing moves
// to the new version on the next request while the retired server keeps —
// and successfully resolves — the requests it held at swap time.
func TestFleetHotSwapZeroDowntime(t *testing.T) {
	clk := newTclock()
	execs := []*stormExec{{predMS: 5}}
	fl, _ := testFleet(t, "m", satisfaction.ImageTagging(), execs,
		func(i int) NodeConfig {
			return NodeConfig{Serve: serve.Config{Workers: 1, ManualFlush: true, Clock: clk.Now}}
		}, Config{Clock: clk.Now})
	ctx := context.Background()

	before, err := fl.Submit("m", "c")
	if err != nil {
		t.Fatal(err)
	}
	if v := before.Legs()[0].Version(); v != 1 {
		t.Fatalf("pre-swap version = %d, want 1", v)
	}

	d2, err := NewDeployment("m", satisfaction.ImageTagging(),
		map[string]serve.Executor{"pf0": &stormExec{predMS: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Swap(d2); err != nil {
		t.Fatal(err)
	}

	after, err := fl.Submit("m", "c")
	if err != nil {
		t.Fatal(err)
	}
	if v := after.Legs()[0].Version(); v != 2 {
		t.Fatalf("post-swap version = %d, want 2", v)
	}
	if v := fl.Snapshot().Replicas[0].Versions["m"]; v != 2 {
		t.Fatalf("node serves version %d, want 2", v)
	}

	// The in-flight pre-swap request drains on the retired server without
	// a single swap-attributable failure.
	before.Legs()[0].Server().Flush()
	if _, err := before.Legs()[0].Wait(ctx); err != nil {
		t.Fatalf("pre-swap request failed across the swap: %v", err)
	}
	if st := before.Legs()[0].Server().Stats(); st.Failed != 0 {
		t.Errorf("retired server failed %d requests", st.Failed)
	}
	after.Legs()[0].Server().Flush()
	if _, err := after.Legs()[0].Wait(ctx); err != nil {
		t.Fatal(err)
	}
	drained, err := fl.DrainRetired(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if drained != 1 {
		t.Errorf("drained %d retired servers, want 1", drained)
	}
	if snap := fl.Snapshot(); snap.Swaps != 1 {
		t.Errorf("swaps = %d, want 1", snap.Swaps)
	}
	if err := fl.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestFleetEjectionReadmissionConservation is the breaker-storm test: a
// race-enabled run with concurrent submitters while one replica's
// executor storms (breaker opens → health check ejects) and recovers
// (cooldown elapses on the injected clock → readmission). Whatever the
// routing did, fleet-wide accounting must conserve:
// Submitted == Completed + Failed with every queue drained.
func TestFleetEjectionReadmissionConservation(t *testing.T) {
	clk := newTclock() // fleet cooldown clock; servers run on wall clock
	execs := []*stormExec{{predMS: 0.2}, {predMS: 0.2}, {predMS: 0.2}}
	fl, nodes := testFleet(t, "m", satisfaction.ImageTagging(), execs,
		func(i int) NodeConfig {
			return NodeConfig{Serve: serve.Config{
				Workers: 2, QueueCap: 4096, LingerMS: 1,
				BreakerThreshold: 2, BreakerCooldownMS: 60_000,
			}}
		}, Config{Clock: clk.Now})
	ctx := context.Background()

	var (
		futMu sync.Mutex
		futs  []*FleetFuture
		stop  = make(chan struct{})
		wg    sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ff, err := fl.Submit("m", fmt.Sprintf("g%d-c%d", g, i%64))
				if err != nil {
					continue
				}
				futMu.Lock()
				futs = append(futs, ff)
				futMu.Unlock()
				time.Sleep(200 * time.Microsecond)
			}
		}(g)
	}

	// Storm: fail node 0's executor until the health sweep ejects it.
	execs[0].failing.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for fl.Snapshot().Ejections == 0 && time.Now().Before(deadline) {
		fl.CheckHealth()
		time.Sleep(2 * time.Millisecond)
	}
	// Recover: heal the executor, run out the ejection cooldown on the
	// injected clock, and sweep again.
	execs[0].failing.Store(false)
	clk.Advance(time.Second)
	for fl.Snapshot().Readmissions == 0 && time.Now().Before(deadline) {
		fl.CheckHealth()
		time.Sleep(2 * time.Millisecond)
	}

	close(stop)
	wg.Wait()
	futMu.Lock()
	all := futs
	futMu.Unlock()
	for _, ff := range all {
		ff.Wait(ctx) // failures are expected mid-storm; only conservation matters
	}
	if err := fl.Close(ctx); err != nil {
		t.Fatal(err)
	}

	snap := fl.Snapshot()
	if snap.Ejections == 0 {
		t.Error("storm never ejected the failing replica")
	}
	if snap.Readmissions == 0 {
		t.Error("cooldown never readmitted the healed replica")
	}
	var submitted, completed, failed uint64
	var depth int
	for _, n := range nodes {
		if st, ok := n.Stats("m"); ok {
			submitted += st.Submitted
			completed += st.Completed
			failed += st.Failed
			depth += st.QueueDepth
		}
	}
	if submitted == 0 {
		t.Fatal("no traffic reached the fleet")
	}
	if depth != 0 {
		t.Errorf("queues not drained after Close: depth %d", depth)
	}
	if submitted != completed+failed {
		t.Errorf("conservation violated fleet-wide: %d submitted != %d completed + %d failed",
			submitted, completed, failed)
	}
}

// TestNodeHealthyReasons: a node leaves rotation with one reason per
// breaker-open server, and with the one reason "node closed" once closed.
func TestNodeHealthyReasons(t *testing.T) {
	exec := &stormExec{predMS: 1}
	fl, nodes := testFleet(t, "m", satisfaction.ImageTagging(), []*stormExec{exec},
		func(int) NodeConfig {
			return NodeConfig{Serve: serve.Config{
				Workers: 1, ManualFlush: true, BreakerThreshold: 1, BreakerCooldownMS: 1e9,
			}}
		}, Config{})
	node := nodes[0]
	ctx := context.Background()
	if ok, reasons := node.Healthy(); !ok || len(reasons) != 0 {
		t.Fatalf("fresh node = (%v, %q), want healthy", ok, reasons)
	}
	exec.failing.Store(true)
	tk, err := node.Submit("m")
	if err != nil {
		t.Fatal(err)
	}
	tk.Server().Flush()
	if _, err := tk.Wait(ctx); err == nil {
		t.Fatal("the failing launch succeeded")
	}
	if ok, reasons := node.Healthy(); ok || !slices.Equal(reasons, []string{"m: circuit breaker open"}) {
		t.Errorf("breaker-open node = (%v, %q), want [m: circuit breaker open]", ok, reasons)
	}
	if err := fl.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if ok, reasons := node.Healthy(); ok || !slices.Equal(reasons, []string{"node closed"}) {
		t.Errorf("closed node = (%v, %q), want [node closed]", ok, reasons)
	}
}

// TestFleetWriteMetrics spot-checks the merged exposition: fleet counters
// plus replica-labelled serve families in one parseable document.
func TestFleetWriteMetrics(t *testing.T) {
	clk := newTclock()
	execs := []*stormExec{{predMS: 1}}
	fl, _ := testFleet(t, "m", satisfaction.ImageTagging(), execs,
		func(i int) NodeConfig {
			return NodeConfig{Serve: serve.Config{Workers: 1, ManualFlush: true, Clock: clk.Now}}
		}, Config{Clock: clk.Now})
	ctx := context.Background()
	if _, err := fl.Submit("m", "c"); err != nil {
		t.Fatal(err)
	}
	if err := fl.Close(ctx); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := fl.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"pcnn_fleet_requests_total 1",
		"pcnn_fleet_replicas 1",
		`replica="n0"`,
		`platform="pf0"`,
		`model="m"`,
		"pcnn_serve_requests_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged metrics missing %q", want)
		}
	}
	if n := strings.Count(out, "# TYPE pcnn_serve_requests_total"); n != 1 {
		t.Errorf("TYPE header emitted %d times, want once", n)
	}
}

// TestFleetNoReplicas pins the empty-fleet and unknown-model errors.
func TestFleetNoReplicas(t *testing.T) {
	reg := NewRegistry()
	d, err := NewDeployment("m", satisfaction.ImageTagging(),
		map[string]serve.Executor{"p": &stormExec{predMS: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(d); err != nil {
		t.Fatal(err)
	}
	fl := New(reg, Config{})
	if _, err := fl.Submit("m", "c"); !errors.Is(err, ErrNoReplicas) {
		t.Errorf("empty fleet Submit = %v, want ErrNoReplicas", err)
	}
	if _, err := fl.Submit("ghost", "c"); err == nil {
		t.Error("unknown model Submit should fail")
	}
}
