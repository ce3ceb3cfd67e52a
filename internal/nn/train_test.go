package nn

import (
	"math"
	"math/rand"
	"testing"

	"pcnn/internal/tensor"
)

// tinyNet is a minimal conv classifier for fast training tests.
func tinyNet(rng *rand.Rand) *Sequential {
	return NewSequential("tiny", 3,
		NewConv("c1", 1, 8, 8, 4, 3, 1, 1, rng),
		NewReLU("r1"),
		NewMaxPool("p1", 2, 2),
		NewFC("f", 4*4*4, 3, rng),
	)
}

// tinyData builds a trivially separable dataset: class k has a bright
// band in rows 2k..2k+1.
func tinyData(n int, rng *rand.Rand) *Dataset {
	x := tensor.New(n, 1, 8, 8)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		k := i % 3
		labels[i] = k
		for y := 2 * k; y < 2*k+2; y++ {
			for xx := 0; xx < 8; xx++ {
				x.Set(1+float32(rng.NormFloat64())*0.1, i, 0, y, xx)
			}
		}
	}
	return &Dataset{X: x, Labels: labels}
}

func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := tinyNet(rng)
	data := tinyData(30, rng)
	opt := NewSGD(0.05, 0.9)
	first := TrainEpoch(net, data, 10, opt)
	var last float64
	for e := 0; e < 15; e++ {
		last = TrainEpoch(net, data, 10, opt)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %v, last %v", first, last)
	}
}

func TestTrainingReachesHighAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	net := tinyNet(rng)
	train := tinyData(60, rng)
	test := tinyData(30, rng)
	opt := NewSGD(0.05, 0.9)
	Train(net, train, 10, 20, opt)
	if acc := net.Accuracy(test.X, test.Labels, nil); acc < 0.9 {
		t.Fatalf("accuracy %v, want ≥0.9 on separable data", acc)
	}
}

func TestPredictRowsAreDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	net := tinyNet(rng)
	data := tinyData(6, rng)
	probs := net.Predict(data.X)
	if len(probs) != 6 {
		t.Fatalf("got %d prob rows, want 6", len(probs))
	}
	for i, p := range probs {
		var sum float64
		for _, v := range p {
			if v < 0 {
				t.Fatalf("row %d has negative probability %v", i, v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestLossAndGradShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	net := tinyNet(rng)
	data := tinyData(4, rng)
	logits := net.Forward(data.X, true)
	loss, grad := net.LossAndGrad(logits, data.Labels)
	if loss <= 0 {
		t.Fatalf("initial loss %v, want positive", loss)
	}
	if grad.Dim(0) != 4 || grad.Dim(1) != 3 {
		t.Fatalf("grad shape %v, want [4 3]", grad.Shape())
	}
	// Gradient rows sum to ~0 (softmax property: Σp − 1 = 0).
	for i := 0; i < 4; i++ {
		var s float64
		for j := 0; j < 3; j++ {
			s += float64(grad.At(i, j))
		}
		if math.Abs(s) > 1e-5 {
			t.Fatalf("grad row %d sums to %v, want 0", i, s)
		}
	}
}

func TestLossAndGradRejectsBadLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	net := tinyNet(rng)
	data := tinyData(2, rng)
	logits := net.Forward(data.X, false)
	defer func() {
		if recover() == nil {
			t.Fatalf("out-of-range label did not panic")
		}
	}()
	net.LossAndGrad(logits, []int{0, 99})
}

func TestDatasetSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	data := tinyData(10, rng)
	sub := data.Slice(2, 5)
	if sub.Len() != 3 {
		t.Fatalf("slice len %d, want 3", sub.Len())
	}
	if sub.Labels[0] != data.Labels[2] {
		t.Fatalf("slice labels misaligned")
	}
}

func TestDatasetSliceBoundsPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	data := tinyData(4, rng)
	defer func() {
		if recover() == nil {
			t.Fatalf("bad slice did not panic")
		}
	}()
	data.Slice(2, 9)
}

func TestScaledNetworksForward(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	nets := []*Sequential{AlexNetS(rng), VGGS(rng), GoogLeNetS(rng)}
	x := tensor.New(2, 3, ScaledInputSize, ScaledInputSize)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	for _, net := range nets {
		logits := net.Forward(x, false)
		if logits.Dim(0) != 2 || logits.Dim(1) != ScaledClasses {
			t.Errorf("%s: logits shape %v", net.Name(), logits.Shape())
		}
	}
}

func TestScaledNetworksHavePerforableConvs(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	wantMin := map[string]int{"AlexNet-S": 5, "VGG-S": 6, "GoogLeNet-S": 7}
	for name, min := range wantMin {
		net := ScaledByName(name, rng)
		if net == nil {
			t.Fatalf("ScaledByName(%q) = nil", name)
		}
		if got := len(net.PerforableLayers()); got < min {
			t.Errorf("%s: %d perforable layers, want ≥%d", name, got, min)
		}
	}
	if ScaledByName("nope", rng) != nil {
		t.Errorf("unknown scaled name resolved")
	}
}

func TestScaledNetworkTrainable(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	net := AlexNetS(rng)
	// Quick separable task at scaled input size.
	n := 24
	x := tensor.New(n, 3, ScaledInputSize, ScaledInputSize)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		k := i % ScaledClasses
		labels[i] = k
		for c := 0; c < 3; c++ {
			x.Set(1, i, c, k%ScaledInputSize, (k*2)%ScaledInputSize)
		}
	}
	data := &Dataset{X: x, Labels: labels}
	opt := NewSGD(0.05, 0.9)
	first := TrainEpoch(net, data, 8, opt)
	var last float64
	for e := 0; e < 8; e++ {
		last = TrainEpoch(net, data, 8, opt)
	}
	if !(last < first) {
		t.Fatalf("AlexNet-S loss did not decrease: %v → %v", first, last)
	}
}

func TestGoogLeNetSTrainsThroughInception(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	net := GoogLeNetS(rng)
	n := 16
	x := tensor.New(n, 3, ScaledInputSize, ScaledInputSize)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % ScaledClasses
		x.Set(1, i, 0, labels[i]%ScaledInputSize, labels[i]%ScaledInputSize)
	}
	data := &Dataset{X: x, Labels: labels}
	opt := NewSGD(0.05, 0.9)
	first := TrainEpoch(net, data, 8, opt)
	var last float64
	for e := 0; e < 6; e++ {
		last = TrainEpoch(net, data, 8, opt)
	}
	if !(last < first) {
		t.Fatalf("GoogLeNet-S loss did not decrease: %v → %v", first, last)
	}
}

func TestZeroGradClearsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	net := tinyNet(rng)
	data := tinyData(4, rng)
	logits := net.Forward(data.X, true)
	_, grad := net.LossAndGrad(logits, data.Labels)
	net.Backward(grad)
	net.ZeroGrad()
	for _, p := range net.Params() {
		for i, v := range p.G.Data {
			if v != 0 {
				t.Fatalf("%s grad[%d] = %v after ZeroGrad", p.Name, i, v)
			}
		}
	}
}
