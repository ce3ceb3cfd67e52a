package serve

import (
	"context"
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
	"pcnn/internal/sched"
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
	path := []sched.TuningPoint{{Entropy: 0.2}, {Entropy: 0.5}}

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
	var path []sched.TuningPoint
	for level := 0; level < 4; level++ {
		keeps := make([]nn.Keep, len(layers))
		for i, l := range layers {
			ho, wo := l.OutDims()
			keeps[i] = nn.Keep{W: max(wo*(4-level)/4, 1), H: max(ho*(4-level)/4, 1)}
		}
		table.Entries = append(table.Entries, runtimemgr.TableEntry{Keeps: keeps, Speedup: 1 + float64(level), TunedLayer: -1})
		path = append(path, sched.TuningPoint{Entropy: 0.2 + 0.1*float64(level)})
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

func layerNames(layers []*nn.Conv) []string {
	out := make([]string, len(layers))
	for i, l := range layers {
		out[i] = l.Name()
	}
	return out
}
