package compile

import (
	"math"
	"testing"

	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/satisfaction"
)

// TestSimulateProfiled: profiling a simulated run gives one entry per
// layer, simulated columns sum to the aggregate, predicted column sums to
// the plan's end-to-end prediction.
func TestSimulateProfiled(t *testing.T) {
	plan, err := Compile(nn.AlexNetShape(), gpu.PlatformByName("TX1"), satisfaction.ImageTagging())
	if err != nil {
		t.Fatal(err)
	}
	results, agg, err := plan.Simulate(true)
	if err != nil {
		t.Fatal(err)
	}
	prof := plan.ProfileResults(results, nil)
	if len(prof) != len(plan.Layers) {
		t.Fatalf("profile has %d entries for %d layers", len(prof), len(plan.Layers))
	}
	var timeSum, energySum, predSum float64
	for i, lp := range prof {
		if lp.Name != plan.Layers[i].Name {
			t.Errorf("entry %d name %q, want %q", i, lp.Name, plan.Layers[i].Name)
		}
		if lp.TimeMS <= 0 || lp.EnergyJ <= 0 {
			t.Errorf("layer %s degenerate: %+v", lp.Name, lp)
		}
		timeSum += lp.TimeMS
		energySum += lp.EnergyJ
		predSum += lp.PredictedMS
	}
	if math.Abs(timeSum-agg.TimeMS) > 1e-9*math.Max(1, agg.TimeMS) {
		t.Errorf("profile time sum %v != aggregate %v", timeSum, agg.TimeMS)
	}
	if math.Abs(energySum-agg.EnergyJ) > 1e-9*math.Max(1, agg.EnergyJ) {
		t.Errorf("profile energy sum %v != aggregate %v", energySum, agg.EnergyJ)
	}
	if math.Abs(predSum-plan.PredictedMS) > 1e-9*math.Max(1, plan.PredictedMS) {
		t.Errorf("profile predicted sum %v != plan prediction %v", predSum, plan.PredictedMS)
	}
}

// TestProfileResultsKeepScaling: the profile's predicted column is
// PredictMS's per-layer terms (LayerPredictMS) and sums to
// PredictMS(p, p.Batch, keep); a perforated conv layer's term is at most
// its full term, and every other layer's term is unchanged.
func TestProfileResultsKeepScaling(t *testing.T) {
	plan, err := CompileAtBatch(nn.AlexNetShape(), gpu.PlatformByName("K20c"), satisfaction.ImageTagging(), 4)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := plan.Simulate(true)
	if err != nil {
		t.Fatal(err)
	}
	var convName string
	for _, l := range plan.Layers {
		if l.GEMM.IsConv {
			convName = l.Name
			break
		}
	}
	if convName == "" {
		t.Fatal("no conv layer in AlexNet plan")
	}
	keep := map[string]float64{convName: 0.5}
	full := plan.ProfileResults(results, nil)
	scaled := plan.ProfileResults(results, keep)
	terms := LayerPredictMS(plan, plan.Batch, keep)
	if len(scaled) != len(terms) || len(full) != len(terms) {
		t.Fatalf("%d and %d profile entries for %d terms", len(full), len(scaled), len(terms))
	}
	var sum float64
	for i := range scaled {
		if scaled[i].PredictedMS != terms[i] {
			t.Errorf("layer %s predicted %v, want its term %v", scaled[i].Name, scaled[i].PredictedMS, terms[i])
		}
		sum += scaled[i].PredictedMS
		if scaled[i].Name == convName {
			if scaled[i].PredictedMS > full[i].PredictedMS {
				t.Errorf("perforated layer %s predicted %v above its full %v",
					convName, scaled[i].PredictedMS, full[i].PredictedMS)
			}
		} else if scaled[i].PredictedMS != full[i].PredictedMS {
			t.Errorf("unperforated layer %s predicted %v, full %v", scaled[i].Name, scaled[i].PredictedMS, full[i].PredictedMS)
		}
	}
	if want := PredictMS(plan, plan.Batch, keep); sum != want {
		t.Errorf("predicted column sums to %v, PredictMS %v", sum, want)
	}
}

func TestLayerNames(t *testing.T) {
	plan, err := CompileAtBatch(nn.AlexNetShape(), gpu.PlatformByName("K20c"), satisfaction.ImageTagging(), 1)
	if err != nil {
		t.Fatal(err)
	}
	names := plan.LayerNames()
	if len(names) != len(plan.Layers) {
		t.Fatalf("names = %d, layers = %d", len(names), len(plan.Layers))
	}
	for i, n := range names {
		if n != plan.Layers[i].Name {
			t.Errorf("names[%d] = %q, want %q", i, n, plan.Layers[i].Name)
		}
	}
}
