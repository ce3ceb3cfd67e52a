package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/satisfaction"
	"pcnn/internal/serve"
)

// The lab fixture trains once per test binary.
var labFix struct {
	once sync.Once
	lab  *Lab
	fw   *Framework
	err  error
}

func framework(t *testing.T) (*Framework, *Lab) {
	t.Helper()
	labFix.once.Do(func() {
		labFix.lab = NewLab(1)
		fw, err := New("AlexNet", gpu.TX1(), satisfaction.VideoSurveillance(60))
		if err != nil {
			labFix.err = err
			return
		}
		if err := fw.CompileOffline(); err != nil {
			labFix.err = err
			return
		}
		net, err := labFix.lab.TrainNet("AlexNet")
		if err != nil {
			labFix.err = err
			return
		}
		if err := fw.AttachScaled(net, labFix.lab.Test.X); err != nil {
			labFix.err = err
			return
		}
		labFix.fw = fw
	})
	if labFix.err != nil {
		t.Fatal(labFix.err)
	}
	return labFix.fw, labFix.lab
}

func TestNewRejectsUnknownNetwork(t *testing.T) {
	if _, err := New("LeNet", gpu.TX1(), satisfaction.AgeDetection()); err == nil {
		t.Fatal("unknown network accepted")
	}
}

func TestNewRejectsInvalidTask(t *testing.T) {
	bad := satisfaction.Task{Name: "b", Class: satisfaction.RealTime}
	if _, err := New("AlexNet", gpu.TX1(), bad); err == nil {
		t.Fatal("invalid task accepted")
	}
}

// TestFrameworkEndToEnd serves one batch of test samples through the
// deployed framework: it runs at the task's base level (the most
// aggressive one within the entropy threshold) and answers every request
// with a softmax row over the scaled networks' classes.
func TestFrameworkEndToEnd(t *testing.T) {
	fw, lab := framework(t)
	if fw.Plan == nil || fw.Table == nil || fw.Scaled == nil {
		t.Fatal("framework not fully assembled")
	}
	if len(fw.Table.Entries) < 2 {
		t.Fatalf("tuning produced %d entries, want ≥2", len(fw.Table.Entries))
	}
	// The frame deadline does not fit the base level on TX1; with
	// escalation off the batch stays where calibration starts.
	const n = 8
	epoch := time.Unix(0, 0)
	srv, err := fw.Serve(serve.Config{
		MaxBatch: n, DisableDegrade: true, ManualFlush: true,
		Clock: func() time.Time { return epoch },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	defer srv.Close(ctx)
	base := srv.Predict(0).BaseLevel
	futs := make([]*serve.Future, n)
	for i := range futs {
		if futs[i], err = srv.SubmitInput(lab.Test.Sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Flush(); got != n {
		t.Fatalf("flushed %d requests, want %d", got, n)
	}
	for i, f := range futs {
		res, err := f.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Batch != n || res.Level != base {
			t.Fatalf("request %d ran in a batch of %d at level %d, want %d at base %d", i, res.Batch, res.Level, n, base)
		}
		if len(res.Probs) != nn.ScaledClasses || res.Entropy <= 0 {
			t.Fatalf("request %d: %d probabilities, entropy %v", i, len(res.Probs), res.Entropy)
		}
	}
}

func TestTuningPathTransfersToFullSize(t *testing.T) {
	fw, _ := framework(t)
	path := fw.TuningPath()
	if len(path) != len(fw.Table.Entries) {
		t.Fatalf("path %d points, table %d entries", len(path), len(fw.Table.Entries))
	}
	if len(path[0].Keeps) != 0 {
		t.Fatalf("baseline point perforates layers: %v", path[0].Keeps)
	}
	last := path[len(path)-1]
	if len(last.Keeps) == 0 {
		t.Fatalf("most aggressive point perforates nothing")
	}
	// Transferred names must be real full-size conv layers.
	valid := map[string]bool{}
	for _, c := range fw.Net.ConvLayers() {
		valid[c.Name] = true
	}
	for name, f := range last.Keeps {
		if !valid[name] {
			t.Errorf("transferred keep for unknown layer %q", name)
		}
		if f <= 0 || f >= 1 {
			t.Errorf("keep fraction %v for %s out of (0,1)", f, name)
		}
	}
	// Entropy trends upward along the path (greedy perforation can dip
	// occasionally — a more aggressive net may be confidently wrong — but
	// the endpoint must be markedly less certain than the baseline).
	if !(path[len(path)-1].Entropy > path[0].Entropy) {
		t.Errorf("path entropy did not rise: %v → %v", path[0].Entropy, path[len(path)-1].Entropy)
	}
}

func TestMapScaledToFull(t *testing.T) {
	// 5 scaled convs onto 5 full convs: identity.
	for i := 0; i < 5; i++ {
		if got := mapScaledToFull(i, 5, 5); got != i {
			t.Errorf("map(%d,5,5) = %d, want %d", i, got, i)
		}
	}
	// 6 scaled onto 13 full: endpoints pin, interior spreads.
	if got := mapScaledToFull(0, 6, 13); got != 0 {
		t.Errorf("map(0,6,13) = %d, want 0", got)
	}
	if got := mapScaledToFull(5, 6, 13); got != 12 {
		t.Errorf("map(5,6,13) = %d, want 12", got)
	}
	mid := mapScaledToFull(3, 6, 13)
	if mid < 5 || mid > 9 {
		t.Errorf("map(3,6,13) = %d, want mid-range", mid)
	}
}

func TestEvaluateAllSchedulers(t *testing.T) {
	fw, _ := framework(t)
	outcomes, err := fw.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 6 {
		t.Fatalf("got %d outcomes, want 6", len(outcomes))
	}
	byName := map[string]float64{}
	for _, o := range outcomes {
		byName[o.Scheduler] = o.SoC
	}
	// The paper's TX1 real-time claim via the full pipeline: P-CNN's SoC
	// is positive and at least every baseline's.
	if byName["P-CNN"] <= 0 {
		t.Fatalf("P-CNN SoC %v, want positive on TX1 real-time", byName["P-CNN"])
	}
	for _, base := range []string{"Perf", "Energy", "QPE", "QPE+"} {
		if byName["P-CNN"] < byName[base] {
			t.Errorf("P-CNN SoC %v below %s %v", byName["P-CNN"], base, byName[base])
		}
	}
}

func TestLabAccuracyBand(t *testing.T) {
	_, lab := framework(t)
	net := labFix.fw.Scaled
	acc := lab.Accuracy(net, nil)
	if acc < 0.6 || acc > 0.98 {
		t.Fatalf("trained AlexNet-S accuracy %v outside sane band", acc)
	}
	if h := lab.Entropy(net, nil); h <= 0 || h > 1.0 {
		t.Fatalf("trained AlexNet-S entropy %v outside sane band", h)
	}
}

func TestLabUnknownNet(t *testing.T) {
	lab := NewLab(2)
	if _, err := lab.TrainNet("LeNet"); err == nil {
		t.Fatal("unknown scaled network accepted")
	}
}

// TestTrainNetMemoized: a lab trains each network once; later calls, from
// several goroutines at once, return the network the first one trained.
func TestTrainNetMemoized(t *testing.T) {
	fw, lab := framework(t)
	nets := make([]*nn.Sequential, 4)
	var wg sync.WaitGroup
	for i := range nets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nets[i], _ = lab.TrainNet("AlexNet")
		}()
	}
	wg.Wait()
	for i, net := range nets {
		if net != fw.Scaled {
			t.Fatalf("call %d: TrainNet(\"AlexNet\") returned a network other than the first call's", i)
		}
	}
}
