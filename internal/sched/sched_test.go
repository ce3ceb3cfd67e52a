package sched

import (
	"testing"

	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/satisfaction"
)

// scenario builds an evaluation scenario with a synthetic tuning path of
// the shape the real tuner produces: increasing aggression, increasing
// entropy, matching Fig 16 (≈1.8× speedup before the threshold).
func scenario(dev *gpu.Device, task satisfaction.Task) Scenario {
	keepsAt := func(f float64) map[string]float64 {
		m := map[string]float64{}
		for _, c := range nn.AlexNetShape().ConvLayers() {
			m[c.Name] = f
		}
		return m
	}
	return Scenario{
		Net:  nn.AlexNetShape(),
		Dev:  dev,
		Task: task,
		TuningPath: []TuningPoint{
			{Keeps: nil, Entropy: 0.25},
			{Keeps: keepsAt(0.8), Entropy: 0.3},
			{Keeps: keepsAt(0.65), Entropy: 0.42},
			{Keeps: keepsAt(0.55), Entropy: 0.6},
			{Keeps: keepsAt(0.45), Entropy: 0.85},
			{Keeps: keepsAt(0.35), Entropy: 1.3},
		},
		BaseEntropy: 0.25,
	}
}

func runAll(t *testing.T, sc Scenario) map[string]Outcome {
	t.Helper()
	out := map[string]Outcome{}
	for _, s := range All() {
		o, err := s.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		out[s.Name()] = o
	}
	return out
}

func TestAllSchedulersInteractiveK20(t *testing.T) {
	res := runAll(t, scenario(gpu.K20c(), satisfaction.AgeDetection()))

	// Fig 13(a): every time-model scheduler reaches full SoC_time on K20;
	// the energy-efficient scheduler's 256-request collection delay makes
	// it unusable.
	for _, name := range []string{"Perf", "QPE", "QPE+", "P-CNN", "Ideal"} {
		if res[name].SoCTime != 1 {
			t.Errorf("%s SoCTime = %v, want 1", name, res[name].SoCTime)
		}
	}
	if res["Energy"].SoCTime != 0 {
		t.Errorf("Energy SoCTime = %v, want 0 (collection delay)", res["Energy"].SoCTime)
	}

	// Fig 14(a): QPE+ saves energy over QPE by gating idle SMs; P-CNN
	// saves more via accuracy tuning; Ideal is at least as good as P-CNN.
	if !(res["QPE+"].EnergyPerImageJ < res["QPE"].EnergyPerImageJ) {
		t.Errorf("QPE+ energy %v not < QPE %v", res["QPE+"].EnergyPerImageJ, res["QPE"].EnergyPerImageJ)
	}
	if !(res["P-CNN"].EnergyPerImageJ < res["QPE+"].EnergyPerImageJ) {
		t.Errorf("P-CNN energy %v not < QPE+ %v", res["P-CNN"].EnergyPerImageJ, res["QPE+"].EnergyPerImageJ)
	}

	// Fig 15(a): P-CNN beats every baseline; only Ideal may exceed it.
	for _, name := range []string{"Perf", "Energy", "QPE", "QPE+"} {
		if !(res["P-CNN"].SoC > res[name].SoC) {
			t.Errorf("P-CNN SoC %v not > %s %v", res["P-CNN"].SoC, name, res[name].SoC)
		}
	}
	if !(res["Ideal"].SoC >= res["P-CNN"].SoC) {
		t.Errorf("Ideal SoC %v < P-CNN %v", res["Ideal"].SoC, res["P-CNN"].SoC)
	}
}

func TestRealTimeTX1OnlyPCNNMeetsDeadline(t *testing.T) {
	res := runAll(t, scenario(gpu.TX1(), satisfaction.VideoSurveillance(60)))
	// The paper's headline TX1 result: every scheduler without accuracy
	// tuning misses the 60FPS deadline ('x' in Fig 15(b)); P-CNN and Ideal
	// meet it by approximating the network.
	for _, name := range []string{"Perf", "Energy", "QPE", "QPE+"} {
		if res[name].MeetsDeadline {
			t.Errorf("%s meets the TX1 deadline (%.2fms) — expected a miss", name, res[name].ResponseMS)
		}
		if res[name].SoC != 0 {
			t.Errorf("%s SoC = %v, want 0 on a missed hard deadline", name, res[name].SoC)
		}
	}
	for _, name := range []string{"P-CNN", "Ideal"} {
		if !res[name].MeetsDeadline {
			t.Errorf("%s misses the TX1 deadline (%.2fms)", name, res[name].ResponseMS)
		}
		if res[name].SoC <= 0 {
			t.Errorf("%s SoC = %v, want positive", name, res[name].SoC)
		}
	}
}

func TestRealTimeK20EnergyMissesDeadline(t *testing.T) {
	res := runAll(t, scenario(gpu.K20c(), satisfaction.VideoSurveillance(60)))
	if res["Energy"].MeetsDeadline {
		t.Errorf("Energy-efficient meets the real-time deadline — Fig 13(a) expects a miss")
	}
	for _, name := range []string{"Perf", "QPE", "QPE+", "P-CNN", "Ideal"} {
		if !res[name].MeetsDeadline {
			t.Errorf("%s misses the 60FPS deadline on K20 (%.2fms)", name, res[name].ResponseMS)
		}
	}
}

func TestBackgroundTaskEnergyOrdering(t *testing.T) {
	res := runAll(t, scenario(gpu.K20c(), satisfaction.ImageTagging()))
	// Background tasks batch: per-image energy of batching schedulers is
	// below the non-batching performance-preferred scheduler.
	if !(res["Energy"].EnergyPerImageJ < res["Perf"].EnergyPerImageJ) {
		t.Errorf("Energy %v not < Perf %v", res["Energy"].EnergyPerImageJ, res["Perf"].EnergyPerImageJ)
	}
	// Everyone satisfies SoC_time = 1 in the background class.
	for name, o := range res {
		if o.SoCTime != 1 {
			t.Errorf("%s SoCTime = %v, want 1 for background", name, o.SoCTime)
		}
	}
	// P-CNN still wins on SoC via accuracy tuning.
	for _, name := range []string{"Perf", "Energy", "QPE", "QPE+"} {
		if !(res["P-CNN"].SoC > res[name].SoC) {
			t.Errorf("P-CNN SoC %v not > %s %v", res["P-CNN"].SoC, name, res[name].SoC)
		}
	}
}

// At a saturated background batch, QPE and QPE+ consume (nearly) the same
// energy: there is no idle SM for QPE+ to gate (Section V.C).
func TestBackgroundQPEPlusEqualsQPE(t *testing.T) {
	res := runAll(t, scenario(gpu.K20c(), satisfaction.ImageTagging()))
	ratio := res["QPE+"].EnergyPerImageJ / res["QPE"].EnergyPerImageJ
	if ratio < 0.9 || ratio > 1.02 {
		t.Errorf("background QPE+/QPE energy ratio %v, want ≈1", ratio)
	}
}

func TestPCNNRespectsEntropyThreshold(t *testing.T) {
	sc := scenario(gpu.K20c(), satisfaction.AgeDetection()) // threshold 0.9
	o, err := (PCNN{}).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if o.Entropy > sc.Task.EntropyThreshold {
		t.Fatalf("P-CNN picked entropy %v above threshold %v", o.Entropy, sc.Task.EntropyThreshold)
	}
	// It picks the most aggressive acceptable point (0.85, not 0.6).
	if o.Entropy != 0.85 {
		t.Fatalf("P-CNN entropy %v, want 0.85 (most aggressive acceptable)", o.Entropy)
	}
}

func TestIdealAtLeastPCNNEverywhere(t *testing.T) {
	for _, dev := range []*gpu.Device{gpu.K20c(), gpu.TX1()} {
		for _, task := range satisfaction.EvaluationTasks() {
			sc := scenario(dev, task)
			p, err := (PCNN{}).Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			i, err := (Ideal{}).Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if i.SoC < p.SoC-1e-12 {
				t.Errorf("%s/%s: Ideal SoC %v < P-CNN %v", dev.Name, task.Name, i.SoC, p.SoC)
			}
		}
	}
}

func TestEmptyTuningPathFallsBack(t *testing.T) {
	sc := scenario(gpu.K20c(), satisfaction.AgeDetection())
	sc.TuningPath = nil
	sc.BaseEntropy = 0.4
	for _, s := range All() {
		o, err := s.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if o.Entropy != 0.4 {
			t.Errorf("%s entropy %v, want BaseEntropy 0.4", s.Name(), o.Entropy)
		}
	}
}

func TestSchedulerNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range All() {
		if seen[s.Name()] {
			t.Fatalf("duplicate scheduler name %q", s.Name())
		}
		seen[s.Name()] = true
	}
}
