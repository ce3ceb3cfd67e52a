package compile

import (
	"testing"

	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/satisfaction"
)

func TestApplyDVFSUsesSlack(t *testing.T) {
	// AlexNet on K20c finishes in ~2.5ms against a 100ms budget: plenty
	// of imperceptible-region slack to burn.
	p, err := Compile(nn.AlexNetShape(), gpu.K20c(), satisfaction.AgeDetection())
	if err != nil {
		t.Fatal(err)
	}
	_, full, err := p.Simulate(true)
	if err != nil {
		t.Fatal(err)
	}
	frac, err := p.ApplyDVFS()
	if err != nil {
		t.Fatal(err)
	}
	if frac >= 1 {
		t.Fatalf("DVFS kept full clock despite slack (frac %v)", frac)
	}
	if p.PredictedMS > p.Task.TimeBudget() {
		t.Fatalf("scaled prediction %v exceeds budget %v", p.PredictedMS, p.Task.TimeBudget())
	}
	_, scaled, err := p.Simulate(true)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.TimeMS <= full.TimeMS {
		t.Fatalf("scaled run not slower: %v vs %v", scaled.TimeMS, full.TimeMS)
	}
	if scaled.EnergyJ >= full.EnergyJ {
		t.Fatalf("scaled run not cheaper: %vJ vs %vJ", scaled.EnergyJ, full.EnergyJ)
	}
}

func TestApplyDVFSNoSlackKeepsFullClock(t *testing.T) {
	// AlexNet on TX1 misses the 60 FPS budget outright: no downscaling.
	p, err := Compile(nn.AlexNetShape(), gpu.TX1(), satisfaction.VideoSurveillance(60))
	if err != nil {
		t.Fatal(err)
	}
	frac, err := p.ApplyDVFS()
	if err != nil {
		t.Fatal(err)
	}
	if frac != 1 || p.EffDev != nil {
		t.Fatalf("DVFS downscaled a plan with no slack (frac %v)", frac)
	}
}

func TestApplyDVFSBackgroundNoop(t *testing.T) {
	p, err := Compile(nn.AlexNetShape(), gpu.K20c(), satisfaction.ImageTagging())
	if err != nil {
		t.Fatal(err)
	}
	frac, err := p.ApplyDVFS()
	if err != nil {
		t.Fatal(err)
	}
	if frac != 1 {
		t.Fatalf("background task downscaled to %v", frac)
	}
}

func TestSimulateSharedDonatesFreedSMs(t *testing.T) {
	dev := gpu.K20c()
	fg, err := Compile(nn.AlexNetShape(), dev, satisfaction.AgeDetection())
	if err != nil {
		t.Fatal(err)
	}
	bg, err := Compile(nn.GoogLeNetShape(), dev, satisfaction.ImageTagging())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fg.SimulateShared(bg)
	if err != nil {
		t.Fatal(err)
	}
	// Batch-1 AlexNet frees SMs on most layers, so background CTAs ride
	// along…
	if res.BgCTAs == 0 {
		t.Fatalf("no background CTAs completed despite freed SMs %v", fg.FreedSMs())
	}
	// …without materially slowing the foreground layers (disjoint SM
	// windows; only DRAM is shared).
	if res.FgSlowdownMax > 1.35 {
		t.Fatalf("worst foreground slowdown %vx, want ≤1.35x", res.FgSlowdownMax)
	}
	if res.Aggregate.TimeMS <= 0 || res.Aggregate.EnergyJ <= 0 {
		t.Fatalf("degenerate aggregate %+v", res.Aggregate)
	}
}

func TestSimulateSharedNeedsCoRunner(t *testing.T) {
	p, err := Compile(nn.AlexNetShape(), gpu.K20c(), satisfaction.AgeDetection())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SimulateShared(nil); err == nil {
		t.Fatal("nil co-runner accepted")
	}
}
