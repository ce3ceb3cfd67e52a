package runtimemgr

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"pcnn/internal/nn"
	"pcnn/internal/workload"
)

// The trained fixture is shared across tests: tuning and calibration run
// operating points as the options of their calls and never mutate the
// network (TestTuneAndCalibrateLeaveNetworkUnchanged).
var fixture struct {
	once  sync.Once
	net   *nn.Sequential
	train *nn.Dataset
	test  *nn.Dataset
}

// trainedNet returns a small trained classifier plus probe/test data.
// Training makes the entropy signal meaningful (≈80% accuracy, mean
// entropy ≈0.3 nats on the synthetic task).
func trainedNet(t *testing.T) (*nn.Sequential, *nn.Dataset, *nn.Dataset) {
	t.Helper()
	fixture.once.Do(func() {
		cfg := workload.DefaultSynth()
		cfg.Noise = 0.8
		s := workload.NewSynth(cfg)
		fixture.train, fixture.test = s.TrainTest(384, 96)
		rng := rand.New(rand.NewSource(7))
		fixture.net = nn.AlexNetS(rng)
		nn.Train(fixture.net, fixture.train, 32, 12, nn.NewSGD(0.01, 0.9))
	})
	return fixture.net, fixture.train, fixture.test
}

func TestTunerProducesMonotoneSpeedup(t *testing.T) {
	net, _, test := trainedNet(t)
	tuner := &Tuner{
		Net:       net,
		Probe:     test.X,
		Threshold: 1.2,
		MaxIters:  10,
	}
	table, err := tuner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Entries) < 3 {
		t.Fatalf("tuning table has %d entries, want several iterations", len(table.Entries))
	}
	if table.Entries[0].Speedup != 1 || table.Entries[0].TunedLayer != -1 {
		t.Fatalf("baseline entry malformed: %+v", table.Entries[0])
	}
	for i := 1; i < len(table.Entries); i++ {
		prev, cur := table.Entries[i-1], table.Entries[i]
		if cur.Speedup <= prev.Speedup {
			t.Errorf("speedup not increasing at entry %d: %v → %v", i, prev.Speedup, cur.Speedup)
		}
		if cur.PredictedMS >= prev.PredictedMS {
			t.Errorf("predicted time not decreasing at entry %d", i)
		}
		if cur.TunedLayer < 0 || cur.TunedLayer >= len(table.LayerNames) {
			t.Errorf("entry %d tuned layer %d out of range", i, cur.TunedLayer)
		}
	}
	// All committed entries respect the uncertainty budget.
	for i, e := range table.Entries {
		if e.Entropy > tuner.Threshold {
			t.Errorf("entry %d entropy %v exceeds threshold %v", i, e.Entropy, tuner.Threshold)
		}
	}
}

// TestTuneAndCalibrateLeaveNetworkUnchanged: tuning, then inference at
// every level of the table it produced — the rows a calibrating server
// moves between — leave the shared network's full-grid logits unchanged to
// the bit. A level is the options of a call, never state programmed onto
// the layers.
func TestTuneAndCalibrateLeaveNetworkUnchanged(t *testing.T) {
	net, _, test := trainedNet(t)
	before := net.Forward(test.X, false)
	table, err := (&Tuner{Net: net, Probe: test.X, Threshold: 1.1, MaxIters: 10}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Entries) < 2 {
		t.Fatalf("tuning produced %d entries, want a perforated level", len(table.Entries))
	}
	for _, o := range table.ForwardOpts(net) {
		net.PredictWith(test.X, o)
	}
	after := net.Forward(test.X, false)
	for i := range before.Data {
		if math.Float32bits(after.Data[i]) != math.Float32bits(before.Data[i]) {
			t.Fatalf("logit %d moved %g → %g: the network was mutated", i, before.Data[i], after.Data[i])
		}
	}
}

func TestTunerRequiresProbe(t *testing.T) {
	net, _, _ := trainedNet(t)
	tuner := &Tuner{Net: net, Threshold: 1}
	if _, err := tuner.Run(); err == nil {
		t.Fatal("tuner without probe accepted")
	}
}

func TestTunerEachIterationChangesOneLayer(t *testing.T) {
	net, _, test := trainedNet(t)
	tuner := &Tuner{Net: net, Probe: test.X, Threshold: 1.2, MaxIters: 6}
	table, err := tuner.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(table.Entries); i++ {
		prev, cur := table.Entries[i-1], table.Entries[i]
		changed := 0
		for j := range cur.Keeps {
			if cur.Keeps[j] != prev.Keeps[j] {
				changed++
				if j != cur.TunedLayer {
					t.Errorf("entry %d: layer %d changed but TunedLayer=%d", i, j, cur.TunedLayer)
				}
			}
		}
		if changed != 1 {
			t.Errorf("entry %d changed %d layers, want exactly 1 (Fig 12)", i, changed)
		}
	}
}

func TestKeepFractions(t *testing.T) {
	net, _, test := trainedNet(t)
	tuner := &Tuner{Net: net, Probe: test.X, Threshold: 1.2, MaxIters: 5}
	table, err := tuner.Run()
	if err != nil {
		t.Fatal(err)
	}
	layers := net.PerforableLayers()
	dims := make([]nn.Keep, len(layers))
	for i, l := range layers {
		ho, wo := l.OutDims()
		dims[i] = nn.Keep{W: wo, H: ho}
	}
	fr0 := table.KeepFractions(0, dims)
	for name, f := range fr0 {
		if f != 1 {
			t.Errorf("baseline fraction %s = %v, want 1", name, f)
		}
	}
	last := table.KeepFractions(len(table.Entries)-1, dims)
	anyBelow := false
	for name, f := range last {
		if f <= 0 || f > 1 {
			t.Errorf("fraction %s = %v out of range", name, f)
		}
		if f < 1 {
			anyBelow = true
		}
	}
	if !anyBelow {
		t.Errorf("most aggressive level perforates nothing")
	}
}

func TestFLOPsTimeModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := nn.AlexNetS(rng)
	model := flopsTimeModel(net)
	layers := net.PerforableLayers()
	full := make([]nn.Keep, len(layers))
	for i, l := range layers {
		ho, wo := l.OutDims()
		full[i] = nn.Keep{W: wo, H: ho}
	}
	tFull := model(full)
	halved := append([]nn.Keep(nil), full...)
	halved[0] = nn.Keep{W: full[0].W / 2, H: full[0].H}
	tHalf := model(halved)
	if !(tHalf < tFull) {
		t.Fatalf("halving a layer did not reduce modelled time: %v vs %v", tHalf, tFull)
	}
}
