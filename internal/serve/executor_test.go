package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"pcnn/internal/compile"
	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/runtimemgr"
	"pcnn/internal/satisfaction"
	"pcnn/internal/tensor"
)

func compilePlan(t *testing.T, netName, devName string, task satisfaction.Task) *compile.Plan {
	t.Helper()
	plan, err := compile.Compile(nn.NetShapeByName(netName), gpu.PlatformByName(devName), task)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestSyntheticPath: monotone aggression, threshold crossing reachable.
func TestSyntheticPath(t *testing.T) {
	task := satisfaction.VideoSurveillance(60)
	path := SyntheticPath(nn.AlexNetShape(), task, DefaultSyntheticLevels)
	if len(path) != DefaultSyntheticLevels {
		t.Fatalf("levels = %d, want %d", len(path), DefaultSyntheticLevels)
	}
	if len(path[0].Keeps) != 0 {
		t.Errorf("level 0 must be unperforated, got keeps %v", path[0].Keeps)
	}
	for i := 1; i < len(path); i++ {
		if path[i].Entropy <= path[i-1].Entropy {
			t.Errorf("entropy not increasing at level %d: %v ≤ %v", i, path[i].Entropy, path[i-1].Entropy)
		}
		for name, f := range path[i].Keeps {
			if f <= 0 || f > 1 {
				t.Errorf("level %d layer %s keep %v out of (0,1]", i, name, f)
			}
		}
	}
	if last := path[len(path)-1].Entropy; last <= task.EntropyThreshold {
		t.Errorf("deepest level entropy %v never crosses threshold %v (calibration unreachable)",
			last, task.EntropyThreshold)
	}
	if base := path[0].Entropy; base > task.EntropyThreshold {
		t.Errorf("base entropy %v already above threshold %v", base, task.EntropyThreshold)
	}
}

// TestPlanExecutor runs the production executor on a real compiled plan:
// prediction and simulation must both get faster as the level deepens.
func TestPlanExecutor(t *testing.T) {
	task := satisfaction.VideoSurveillance(60)
	plan := compilePlan(t, "AlexNet", "TX1", task)
	ex, err := NewPlanExecutor(plan, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Levels() < 2 {
		t.Fatalf("levels = %d", ex.Levels())
	}
	deep := ex.Levels() - 1
	p0 := ex.PredictMS(0, 1)
	pd := ex.PredictMS(deep, 1)
	if !(p0 > 0 && pd > 0 && pd < p0) {
		t.Fatalf("prediction not monotone: level0 %.3fms, deepest %.3fms", p0, pd)
	}
	r0, err := ex.Execute(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := ex.Execute(deep, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(r0.TimeMS > 0 && r0.EnergyJ > 0) {
		t.Fatalf("level-0 execution degenerate: %+v", r0)
	}
	if rd.TimeMS >= r0.TimeMS {
		t.Errorf("perforated execution not faster: %.3fms vs %.3fms", rd.TimeMS, r0.TimeMS)
	}
	if rd.Entropy <= r0.Entropy {
		t.Errorf("perforated entropy not higher: %v vs %v", rd.Entropy, r0.Entropy)
	}
}

// TestServerOnPlanExecutor is the end-to-end closed loop on the real
// pipeline: a background deployment serves a burst with zero loss and a
// positive mean SoC.
func TestServerOnPlanExecutor(t *testing.T) {
	task := satisfaction.ImageTagging()
	plan := compilePlan(t, "AlexNet", "K20c", task)
	ex, err := NewPlanExecutor(plan, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ex, task, Config{Workers: 2, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		f, err := s.Submit()
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}
	snap := s.Stats()
	closeServer(t, s)
	if snap.Completed != n || snap.Rejected != 0 || snap.Failed != 0 {
		t.Fatalf("loss in closed loop: %+v", snap)
	}
	if snap.MeanSoC <= 0 {
		t.Fatalf("mean SoC = %v, want > 0", snap.MeanSoC)
	}
	if snap.EnergyPerImageJ <= 0 {
		t.Fatalf("energy per image = %v, want > 0", snap.EnergyPerImageJ)
	}
}

// TestExecutorWithScaledNet covers the executable path: an (untrained)
// scaled network plus a hand-built tuning table must yield real softmax
// rows and a measured — not tabulated — batch entropy.
func TestExecutorWithScaledNet(t *testing.T) {
	task := satisfaction.ImageTagging()
	plan := compilePlan(t, "AlexNet", "K20c", task)
	scaled := nn.AlexNetS(rand.New(rand.NewSource(1)))

	layers := scaled.PerforableLayers()
	full := make([]nn.Keep, len(layers))
	halved := make([]nn.Keep, len(layers))
	for i, l := range layers {
		ho, wo := l.OutDims()
		halved[i] = nn.Keep{W: (wo + 1) / 2, H: (ho + 1) / 2}
	}
	table := &runtimemgr.Table{
		LayerNames: layerNames(layers),
		Entries: []runtimemgr.TableEntry{
			{Keeps: full, Speedup: 1, TunedLayer: -1},
			{Keeps: halved, Speedup: 2, TunedLayer: 0},
		},
	}
	path := []compile.TuningPoint{{Entropy: 0.2}, {Entropy: 0.5}}

	ex, err := NewPlanExecutor(plan, path, scaled, table)
	if err != nil {
		t.Fatal(err)
	}
	inputs := tensor.New(3, 3, nn.ScaledInputSize, nn.ScaledInputSize)
	for i := range inputs.Data {
		inputs.Data[i] = float32(i%7) * 0.1
	}
	for level := 0; level < 2; level++ {
		res, err := ex.Execute(level, 3, inputs)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if len(res.Probs) != 3 {
			t.Fatalf("level %d: %d prob rows, want 3", level, len(res.Probs))
		}
		if res.Entropy <= 0 {
			t.Fatalf("level %d: measured entropy %v, want > 0", level, res.Entropy)
		}
		if res.Entropy == path[level].Entropy {
			t.Errorf("level %d: entropy equals the tabulated value; measurement did not run", level)
		}
	}
}

// TestPlanExecutorConcurrentLevels: an operating point is the options of
// one forward call, not state programmed onto the shared network, so
// batches at different levels run at the same time — there is no lock
// around the network — and each returns exactly the rows a serial run
// returns.
func TestPlanExecutorConcurrentLevels(t *testing.T) {
	task := satisfaction.ImageTagging()
	plan := compilePlan(t, "AlexNet", "K20c", task)
	scaled := nn.AlexNetS(rand.New(rand.NewSource(1)))
	layers := scaled.PerforableLayers()
	table := &runtimemgr.Table{LayerNames: layerNames(layers)}
	var path []compile.TuningPoint
	for level := 0; level < 4; level++ {
		keeps := make([]nn.Keep, len(layers))
		for i, l := range layers {
			ho, wo := l.OutDims()
			keeps[i] = nn.Keep{W: max(wo*(4-level)/4, 1), H: max(ho*(4-level)/4, 1)}
		}
		table.Entries = append(table.Entries, runtimemgr.TableEntry{Keeps: keeps, Speedup: 1 + float64(level), TunedLayer: -1})
		path = append(path, compile.TuningPoint{Entropy: 0.2 + 0.1*float64(level)})
	}
	ex, err := NewPlanExecutor(plan, path, scaled, table)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 16
	inputs := tensor.New(batch, 3, nn.ScaledInputSize, nn.ScaledInputSize)
	rng := rand.New(rand.NewSource(2))
	for i := range inputs.Data {
		inputs.Data[i] = rng.Float32()
	}
	run := func(level int) BatchResult {
		res, err := ex.Execute(level, batch, inputs)
		if err != nil {
			t.Error(err)
		}
		return res
	}
	serial := make([]BatchResult, len(path))
	for level := range serial {
		serial[level] = run(level)
	}
	if reflect.DeepEqual(serial[0].Probs, serial[len(path)-1].Probs) {
		t.Fatal("levels 0 and 3 classify identically; perforation did not engage")
	}
	var wg sync.WaitGroup
	for level := range serial {
		wg.Add(1)
		go func(level int) {
			defer wg.Done()
			for it := 0; it < 6; it++ {
				if got := run(level); !reflect.DeepEqual(got, serial[level]) {
					t.Errorf("level %d iteration %d: concurrent result differs from the serial run", level, it)
					return
				}
			}
		}(level)
	}
	wg.Wait()
}

// TestPlanExecutorProfile: the per-layer profile exists for any operating
// point, its simulated columns are live, and its predicted column sums
// exactly to the Eq 12 estimate the batcher used — the reconciliation the
// acceptance criteria pin.
func TestPlanExecutorProfile(t *testing.T) {
	task := satisfaction.VideoSurveillance(60)
	plan := compilePlan(t, "AlexNet", "TX1", task)
	ex, err := NewPlanExecutor(plan, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []int{0, ex.Levels() - 1} {
		prof, err := ex.Profile(level, 4)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if len(prof) == 0 {
			t.Fatalf("level %d: empty profile", level)
		}
		var predSum, timeSum float64
		for _, lp := range prof {
			if lp.TimeMS <= 0 || lp.EnergyJ <= 0 {
				t.Errorf("level %d layer %s degenerate: %+v", level, lp.Name, lp)
			}
			predSum += lp.PredictedMS
			timeSum += lp.TimeMS
		}
		want := ex.PredictMS(level, 4)
		if diff := predSum - want; diff > 1e-9*want || diff < -1e-9*want {
			t.Errorf("level %d: profile predicted sum %v != PredictMS %v", level, predSum, want)
		}
		if timeSum <= 0 {
			t.Errorf("level %d: simulated time sum %v", level, timeSum)
		}
	}

	// The deepest level's perforated layers must profile cheaper.
	p0, _ := ex.Profile(0, 4)
	pd, _ := ex.Profile(ex.Levels()-1, 4)
	var t0, td float64
	for i := range p0 {
		t0 += p0[i].TimeMS
		td += pd[i].TimeMS
	}
	if td >= t0 {
		t.Errorf("deepest level profile not faster: %.3fms vs %.3fms", td, t0)
	}

	// And the server surfaces it through LayerProfile.
	s, err := NewServer(ex, satisfaction.ImageTagging(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)
	prof, err := s.LayerProfile()
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) != len(plan.Layers) {
		t.Fatalf("server profile has %d entries for %d layers", len(prof), len(plan.Layers))
	}
}

// TestPredictionTracksSimulation: one time model prices every batch, the
// deployed one included, so the batcher's prediction stays within 2 % of
// the simulated time for TX1 AlexNet surveillance at 30 FPS, every
// synthetic level, batches 1–4. Summing the plan's per-layer predictions
// with conv layers scaled linearly by their keep fraction read up to
// 4.98 % low here (level 5, batch 2).
func TestPredictionTracksSimulation(t *testing.T) {
	plan := compilePlan(t, "AlexNet", "TX1", satisfaction.VideoSurveillance(30))
	ex, err := NewPlanExecutor(plan, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for level := 0; level < ex.Levels(); level++ {
		for b := 1; b <= 4; b++ {
			pred, sim := ex.PredictMS(level, b), execute(t, ex, level, b).TimeMS
			if dev := pred/sim - 1; math.Abs(dev) > 0.02 {
				t.Errorf("level %d batch %d: PredictMS %.4f ms, simulated %.4f ms (%+.2f %%)",
					level, b, pred, sim, 100*dev)
			}
		}
	}
}

// TestAnchorFor pins the geometric-nearest power-of-two anchor choice the
// interpolation path rides on.
func TestAnchorFor(t *testing.T) {
	cases := []struct{ batch, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, // 9 > 2·4
		{4, 4}, {5, 4}, // 25 ≤ 4·8
		{6, 8},   // 36 > 32
		{48, 64}, // 2304 > 32·64
		{64, 64},
	}
	for _, c := range cases {
		if got := anchorFor(c.batch); got != c.want {
			t.Errorf("anchorFor(%d) = %d, want %d", c.batch, got, c.want)
		}
	}
}

// TestPlanExecutorInterpolation: non-power-of-two batches get real
// interpolated operating points, not a silent demotion to singleton —
// prediction and execution are strictly monotone in batch and a batch-3
// point lands strictly between its batch-2 and batch-4 neighbours, with
// the profile reconciliation invariant intact off-anchor.
func TestPlanExecutorInterpolation(t *testing.T) {
	task := satisfaction.VideoSurveillance(60)
	plan := compilePlan(t, "AlexNet", "TX1", task)
	ex, err := NewPlanExecutor(plan, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Monotone in batch wherever the same anchor plan prices both sides.
	// Across an anchor boundary (5→6 jumps from the batch-4 plan to the
	// batch-8 plan) absolute ordering is the plans' business, not ours.
	for _, pair := range [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {6, 7}, {7, 8}} {
		lo, hi := ex.PredictMS(0, pair[0]), ex.PredictMS(0, pair[1])
		if !(lo > 0 && hi > lo) {
			t.Fatalf("PredictMS(0,%d) = %v not above PredictMS(0,%d) = %v", pair[1], hi, pair[0], lo)
		}
	}

	p2, p3, p4 := ex.PredictMS(0, 2), ex.PredictMS(0, 3), ex.PredictMS(0, 4)
	if !(p2 < p3 && p3 < p4) {
		t.Errorf("batch-3 prediction %v not strictly between batch 2 (%v) and batch 4 (%v)", p3, p2, p4)
	}

	r2, err := ex.Execute(0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := ex.Execute(0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := ex.Execute(0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(r2.TimeMS < r3.TimeMS && r3.TimeMS < r4.TimeMS) {
		t.Errorf("batch-3 execution %vms not strictly between batch 2 (%vms) and batch 4 (%vms)",
			r3.TimeMS, r2.TimeMS, r4.TimeMS)
	}
	if !(r2.EnergyJ < r3.EnergyJ && r3.EnergyJ < r4.EnergyJ) {
		t.Errorf("batch-3 energy %vJ not strictly between batch 2 (%vJ) and batch 4 (%vJ)",
			r3.EnergyJ, r2.EnergyJ, r4.EnergyJ)
	}

	// The profile invariant — predicted column sums to PredictMS — must
	// hold at the interpolated point too.
	prof, err := ex.Profile(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var predSum float64
	for _, lp := range prof {
		predSum += lp.PredictedMS
	}
	if diff := predSum - p3; diff > 1e-9*p3 || diff < -1e-9*p3 {
		t.Errorf("batch-3 profile predicted sum %v != PredictMS %v", predSum, p3)
	}
}

// simKey names one simulation: a plan batch and a level's keep set.
func simKey(batch int, keeps map[string]float64) string {
	return fmt.Sprintf("b%d %v", batch, keeps)
}

// TestPlanExecutorComputesEachKeyOnce: eight goroutines racing over one
// fresh executor — every level × batch 1–24 through Execute, PredictMS and
// Profile, each goroutine in its own order — compile each anchor once and
// simulate each (level, exact batch) once, and answer bit for bit what a
// serially warmed executor answers.
func TestPlanExecutorComputesEachKeyOnce(t *testing.T) {
	plan := compilePlan(t, "AlexNet", "TX1", satisfaction.AgeDetection())
	serial, err := NewPlanExecutor(plan, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const maxBatch, goroutines = 24, 8
	type cell struct{ level, batch int }
	var cells []cell
	for level := 0; level < serial.Levels(); level++ {
		for b := 1; b <= maxBatch; b++ {
			cells = append(cells, cell{level, b})
		}
	}
	answer := func(ex *PlanExecutor, c cell) string {
		r, err := ex.Execute(c.level, c.batch, nil)
		if err != nil {
			t.Error(err)
		}
		prof, err := ex.Profile(c.level, c.batch)
		if err != nil {
			t.Error(err)
		}
		return fmt.Sprintf("%x %x %x %v", math.Float64bits(ex.PredictMS(c.level, c.batch)),
			math.Float64bits(r.TimeMS), math.Float64bits(r.EnergyJ), prof)
	}
	want := make([]string, len(cells))
	for i, c := range cells {
		want[i] = answer(serial, c)
	}

	calls := countExecutorCalls(t)
	ex, err := NewPlanExecutor(plan, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]string, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[g] = make([]string, len(cells))
			for _, j := range rand.New(rand.NewSource(int64(g))).Perm(len(cells)) {
				got[g][j] = answer(ex, cells[j])
			}
		}()
	}
	close(start)
	wg.Wait()
	for i, c := range cells {
		for g := range got {
			if got[g][i] != want[i] {
				t.Fatalf("goroutine %d, level %d batch %d: %s, serial %s", g, c.level, c.batch, got[g][i], want[i])
			}
		}
	}

	wantCompiles := map[int]int{}
	if lim := ex.BatchLimit(); lim != plan.Batch {
		wantCompiles[lim] = 1 // the ceiling, probed at construction
	}
	wantSims := map[string]int{}
	for _, c := range cells {
		p, err := ex.planNear(c.batch)
		if err != nil {
			t.Fatal(err)
		}
		if p.Batch != plan.Batch && p.Batch != ex.BatchLimit() {
			wantCompiles[p.Batch] = 1
		}
		wantSims[simKey(p.Batch, ex.path[c.level].Keeps)] = 1
	}
	if !reflect.DeepEqual(calls.compiles, wantCompiles) {
		t.Errorf("compiles by batch %v, want one per anchor %v", calls.compiles, wantCompiles)
	}
	if !reflect.DeepEqual(calls.sims, wantSims) {
		t.Errorf("simulations %v, want one per (level, exact batch) %v", calls.sims, wantSims)
	}
}

// TestPlanExecutorBatchLimit: the probed memory ceiling is at least the
// compiled batch and stable across calls.
func TestPlanExecutorBatchLimit(t *testing.T) {
	task := satisfaction.VideoSurveillance(60)
	plan := compilePlan(t, "AlexNet", "TX1", task)
	ex, err := NewPlanExecutor(plan, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lim := ex.BatchLimit()
	if lim < plan.Batch {
		t.Fatalf("BatchLimit %d below the compiled batch %d", lim, plan.Batch)
	}
	if again := ex.BatchLimit(); again != lim {
		t.Errorf("BatchLimit not stable: %d then %d", lim, again)
	}
	// Executing at the ceiling must work without demotion.
	r, err := ex.Execute(0, lim, nil)
	if err != nil {
		t.Fatalf("Execute at BatchLimit %d: %v", lim, err)
	}
	if r.TimeMS <= 0 {
		t.Fatalf("degenerate result at BatchLimit: %+v", r)
	}
}

// TestPlanExecutorAnswersIndependentOfCallOrder: a PlanExecutor's caches
// only memoize — two fresh executors over one plan, warmed in opposite
// orders, answer BatchLimit, PredictMS and Execute identically, bit for
// bit. Concurrent scenario rows and soak rows share one executor per
// deployment, so which row warms it first must not change any row. The
// order covers BatchLimit before and after PredictMS at the limit batch
// (VGGNet on GTX970m holds at most 89: with the ceiling probed lazily,
// batch 89 priced before BatchLimit came from the batch-64 anchor by
// Eq 12, and after it from its own plan), and a non-anchor batch's
// Execute before and after its anchor's.
func TestPlanExecutorAnswersIndependentOfCallOrder(t *testing.T) {
	cases := []struct {
		net, platform string
		task          satisfaction.Task
	}{
		{"AlexNet", "TX1", satisfaction.AgeDetection()},
		{"AlexNet", "TX1", satisfaction.VideoSurveillance(30)},
		{"AlexNet", "TitanX", satisfaction.ImageTagging()},
		{"VGGNet", "GTX970m", satisfaction.AgeDetection()},
		{"GoogLeNet", "K20c", satisfaction.ImageTagging()},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s-%s-%s", c.net, c.platform, c.task.Name), func(t *testing.T) {
			plan := compilePlan(t, c.net, c.platform, c.task)
			fwd, err := NewPlanExecutor(plan, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			rev, err := NewPlanExecutor(plan, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The memory ceiling, found without calling either executor.
			probe, err := compile.CompileAtBatch(plan.Net, plan.Dev, plan.Task, planLimitProbe)
			if err != nil {
				t.Fatal(err)
			}
			limit := probe.Batch
			if limit < 3 {
				t.Skipf("limit batch %d leaves no non-anchor batch", limit)
			}
			// The largest non-anchor batch up to the limit, and its anchor.
			odd := limit
			for anchorFor(odd) == odd {
				odd--
			}
			anchor := anchorFor(odd)
			calls := []func(ex *PlanExecutor, level int) string{
				func(ex *PlanExecutor, _ int) string { return fmt.Sprint("limit ", ex.BatchLimit()) },
				func(ex *PlanExecutor, l int) string {
					return fmt.Sprintf("predict(%d,%d) %x", l, limit, math.Float64bits(ex.PredictMS(l, limit)))
				},
				func(ex *PlanExecutor, l int) string { return executeAnswer(t, ex, l, odd) },
				func(ex *PlanExecutor, l int) string { return executeAnswer(t, ex, l, anchor) },
				func(ex *PlanExecutor, l int) string { return executeAnswer(t, ex, l, limit) },
				func(ex *PlanExecutor, l int) string {
					return fmt.Sprintf("predict(%d,%d) %x", l, odd, math.Float64bits(ex.PredictMS(l, odd)))
				},
			}
			levels := []int{0, fwd.Levels() / 2, fwd.Levels() - 1}
			answers := func(ex *PlanExecutor, reverse bool) map[string]bool {
				got := map[string]bool{}
				for i := range calls {
					j := i
					if reverse {
						j = len(calls) - 1 - i
					}
					for _, l := range levels {
						got[calls[j](ex, l)] = true
					}
				}
				// Every answer again, from the warmed caches.
				for _, call := range calls {
					for _, l := range levels {
						got["again "+call(ex, l)] = true
					}
				}
				return got
			}
			// fwd asks BatchLimit first and rev asks it last.
			a, b := answers(fwd, false), answers(rev, true)
			for k := range a {
				if !b[k] {
					t.Errorf("forward order answered %s; the reverse order did not", k)
				}
			}
			for k := range b {
				if !a[k] {
					t.Errorf("reverse order answered %s; the forward order did not", k)
				}
			}
		})
	}
}

// TestDVFSExecutorPricesOnScaledClock: an executor over a DVFS-scaled
// plan prices every batch on the scaled clock, not only the deployed one.
// For each platform × evaluation task whose AlexNet plan slows its clock,
// the DVFS executor's PredictMS and Execute times at batches 1..16 exceed
// the nominal-clock executor's over the same path.
func TestDVFSExecutorPricesOnScaledClock(t *testing.T) {
	scaled := 0
	for _, dev := range gpu.AllPlatforms() {
		for _, task := range satisfaction.EvaluationTasks() {
			nominal := compilePlan(t, "AlexNet", dev.Name, task)
			dvfs := compilePlan(t, "AlexNet", dev.Name, task)
			if _, err := dvfs.ApplyDVFS(); err != nil {
				t.Fatal(err)
			}
			if dvfs.FreqFrac >= 1 {
				continue
			}
			scaled++
			nomEx, err := NewPlanExecutor(nominal, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			dvfsEx, err := NewPlanExecutor(dvfs, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, level := range []int{0, dvfsEx.Levels() - 1} {
				for b := 1; b <= 16; b++ {
					if d, n := dvfsEx.PredictMS(level, b), nomEx.PredictMS(level, b); !(d > n) {
						t.Errorf("%s/%s at clock %.2f: PredictMS(%d,%d) = %v, not above the nominal %v",
							dev.Name, task.Name, dvfs.FreqFrac, level, b, d, n)
					}
					d, n := execute(t, dvfsEx, level, b), execute(t, nomEx, level, b)
					if !(d.TimeMS > n.TimeMS) {
						t.Errorf("%s/%s at clock %.2f: Execute(%d,%d) takes %v ms, not above the nominal %v",
							dev.Name, task.Name, dvfs.FreqFrac, level, b, d.TimeMS, n.TimeMS)
					}
				}
			}
		}
	}
	if scaled == 0 {
		t.Fatal("no platform × task pair runs below the nominal clock")
	}
}

func execute(t *testing.T, ex *PlanExecutor, level, batch int) BatchResult {
	t.Helper()
	r, err := ex.Execute(level, batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func executeAnswer(t *testing.T, ex *PlanExecutor, level, batch int) string {
	t.Helper()
	r, err := ex.Execute(level, batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("execute(%d,%d) %x %x", level, batch, math.Float64bits(r.TimeMS), math.Float64bits(r.EnergyJ))
}

func layerNames(layers []*nn.Conv) []string {
	out := make([]string, len(layers))
	for i, l := range layers {
		out[i] = l.Name()
	}
	return out
}
