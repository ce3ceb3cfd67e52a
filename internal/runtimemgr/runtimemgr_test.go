package runtimemgr

import (
	"math"
	"math/rand"
	"reflect"
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

// serialRun is Fig 12's greedy loop with every trial measured in turn on
// the calling goroutine, the best kept under a strict > in layer order —
// the reference Run's concurrent trials must reproduce exactly.
func serialRun(t *Tuner) *Table {
	layers := t.Net.PerforableLayers()
	timeOf := flopsTimeModel(t.Net)
	dims := make([]nn.Keep, len(layers))
	names := make([]string, len(layers))
	for i, l := range layers {
		ho, wo := l.OutDims()
		dims[i] = nn.Keep{W: wo, H: ho}
		names[i] = l.Name()
	}
	keeps := append([]nn.Keep(nil), dims...)
	baseMS, baseEntropy := timeOf(keeps), t.measure(keeps)
	table := &Table{LayerNames: names, Entries: []TableEntry{{
		Keeps: append([]nn.Keep(nil), keeps...), PredictedMS: baseMS,
		Entropy: baseEntropy, Speedup: 1, TunedLayer: -1,
	}}}
	if baseEntropy > t.Threshold {
		return table
	}
	curMS, curEntropy := baseMS, baseEntropy
	for iter := 0; iter < t.MaxIters; iter++ {
		bestLayer, bestTE := -1, math.Inf(-1)
		var bestKeep nn.Keep
		var bestMS, bestEntropy float64
		for i := range layers {
			trial, ok := shrink(keeps[i], dims[i])
			if !ok {
				continue
			}
			old := keeps[i]
			keeps[i] = trial
			trialMS, trialEntropy := timeOf(keeps), t.measure(keeps)
			keeps[i] = old
			if te := (curMS - trialMS) / math.Max(trialEntropy-curEntropy, teEpsilon); te > bestTE {
				bestTE, bestLayer, bestKeep, bestMS, bestEntropy = te, i, trial, trialMS, trialEntropy
			}
		}
		if bestLayer < 0 || bestEntropy > t.Threshold {
			break
		}
		keeps[bestLayer] = bestKeep
		curMS, curEntropy = bestMS, bestEntropy
		table.Entries = append(table.Entries, TableEntry{
			Keeps: append([]nn.Keep(nil), keeps...), PredictedMS: curMS,
			Entropy: curEntropy, Speedup: baseMS / curMS, TunedLayer: bestLayer,
		})
	}
	return table
}

// TestTunerTrialsMatchSerial: a greedy step measures its per-layer trials
// concurrently and reduces them in layer order, so the table equals the
// serial loop's — on the trained network by entropy, and on two twin
// layers of equal cost under a constant uncertainty, where every step
// between equal grids is a tie that must go to the lower layer.
func TestTunerTrialsMatchSerial(t *testing.T) {
	net, _, test := trainedNet(t)
	rng := rand.New(rand.NewSource(5))
	twins := nn.NewSequential("Twins", 4,
		nn.NewConv("A", 4, 8, 8, 4, 3, 1, 1, rng),
		nn.NewReLU("RA"),
		nn.NewConv("B", 4, 8, 8, 4, 3, 1, 1, rng),
		nn.NewReLU("RB"),
		nn.NewFC("FC", 4*8*8, 4, rng),
	)
	for _, tuner := range []*Tuner{
		{Net: net, Probe: test.X, Threshold: 1.2, MaxIters: 10},
		{Net: twins, Threshold: 1, MaxIters: 12, Uncertainty: func(*nn.ForwardOpts) float64 { return 0.5 }},
	} {
		got, err := tuner.Run()
		if err != nil {
			t.Fatal(err)
		}
		want := serialRun(tuner)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: concurrent trials built\n%+v\nserial loop\n%+v", tuner.Net.Name(), got.Entries, want.Entries)
		}
		if len(got.Entries) < 3 {
			t.Fatalf("%s: %d entries, want several steps", tuner.Net.Name(), len(got.Entries))
		}
	}
	// The twins' first step is a tie (equal cost, equal uncertainty): the
	// lower layer takes it.
	table, _ := (&Tuner{Net: twins, Threshold: 1, MaxIters: 1, Uncertainty: func(*nn.ForwardOpts) float64 { return 0.5 }}).Run()
	if table.Entries[1].TunedLayer != 0 {
		t.Fatalf("tie went to layer %d, want 0", table.Entries[1].TunedLayer)
	}
}
