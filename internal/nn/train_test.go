package nn

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pcnn/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite testdata/train.golden from the current training path")

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

// trainingRecord trains each scaled network for two epochs (batch 16) over
// one seeded 32-sample set and prints, per epoch, the mean loss and an
// FNV-64a over every parameter's float32 bits, both as exact bit patterns.
// Its first line names the rounding class of the build, not its tile:
// every blocked-GEMM output is one multiply-add chain from zero per KC
// step whatever MR, NR and MC are, so the bits depend only on KC, on
// whether the default engine's micro-kernel fuses its multiply-add
// (roundingClass) and on GOARCH — Go fuses x*y+z in plain Go code on
// arm64 but not on amd64 (below GOAMD64=v3), and the rest of the layers
// are plain Go.
func trainingRecord() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# %s %s kc%d\n", runtime.GOARCH, roundingClass(), tensor.DefaultTile.KC)
	for i, build := range []func(*rand.Rand) *Sequential{AlexNetS, VGGS, GoogLeNetS} {
		net := build(rand.New(rand.NewSource(int64(70 + i))))
		rng := rand.New(rand.NewSource(80))
		x := tensor.New(32, 3, ScaledInputSize, ScaledInputSize)
		for j := range x.Data {
			x.Data[j] = rng.Float32()
		}
		labels := make([]int, 32)
		for j := range labels {
			labels[j] = j % ScaledClasses
		}
		data := &Dataset{X: x, Labels: labels}
		opt := NewSGD(0.05, 0.9)
		for e := 1; e <= 2; e++ {
			loss := TrainEpoch(net, data, 16, opt)
			h := fnv.New64a()
			var word [4]byte
			for _, p := range net.Params() {
				for _, v := range p.W.Data {
					binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
					h.Write(word[:])
				}
			}
			fmt.Fprintf(&b, "%s epoch %d loss %016x (%.6f) params %016x\n",
				net.Name(), e, math.Float64bits(loss), loss, h.Sum64())
		}
	}
	return b.Bytes()
}

// roundingClass probes how the default engine's micro-kernel rounds a
// multiply-add: a 2×2, K = 2 GEMM whose C[0][0] is 1·1 + a·b with
// a = (2²³+2896)·2⁻³⁵ and b = (2²³−2895)·2⁻³⁵, so a·b = 2⁻²⁴ + 4688·2⁻⁷⁰.
// Rounding the product first leaves 1 + 2⁻²⁴, a tie that rounds to even,
// 1; a fused multiply-add keeps the tail and rounds up to 1 + 2⁻²³.
func roundingClass() string {
	a := float32(math.Ldexp(1<<23+2896, -35))
	b := float32(math.Ldexp(1<<23-2895, -35))
	x := tensor.FromSlice([]float32{1, a, 0, 0}, 2, 2)
	y := tensor.FromSlice([]float32{1, 0, b, 0}, 2, 2)
	switch c := tensor.Default().MatMul(x, y).Data[0]; c {
	case 1:
		return "mul-add"
	case 1 + 0x1p-23:
		return "fma"
	default:
		return fmt.Sprintf("unknown-%08x", math.Float32bits(c))
	}
}

// TestTrainingGolden pins training to the bit: every accuracy, entropy and
// tuning number the experiments report comes from a network trained this
// way, so a rewrite of any layer's forward or backward must leave these
// losses and weights unchanged. -update rewrites testdata/train.golden and
// is for a deliberate re-rounding only. A build whose default engine
// rounds differently (another GOARCH, rounding class or KC) skips.
func TestTrainingGolden(t *testing.T) {
	checkTrainingGolden(t, trainingRecord())
}

// TestTrainingGoldenAt6x16 reruns the record with the blocked GEMM forced
// to the AVX2 tile, 120×256×6×16, and holds it to the same golden: a host
// whose default is the AVX-512 12×32 then shows that one golden holds for
// both tiles.
func TestTrainingGoldenAt6x16(t *testing.T) {
	at6x16 := tensor.TileConfig{MC: 120, KC: 256, MR: 6, NR: 16}
	if tensor.DefaultTile == at6x16 {
		t.Skip("the default tile is the 6×16: TestTrainingGolden runs it")
	}
	defer func(was tensor.TileConfig) { tensor.DefaultTile = was }(tensor.DefaultTile)
	tensor.DefaultTile = at6x16
	checkTrainingGolden(t, trainingRecord())
}

// checkTrainingGolden compares a training record with testdata/train.golden
// (or rewrites the golden under -update), skipping when the golden was
// recorded under another rounding class.
func checkTrainingGolden(t *testing.T, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "train.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	build, _, _ := bytes.Cut(got, []byte("\n"))
	if wantBuild, _, _ := bytes.Cut(want, []byte("\n")); !bytes.Equal(build, wantBuild) {
		t.Skipf("golden recorded on %q, this build is %q", wantBuild, build)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("training drifted from %s.\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestTrainEpochAllocs: the training forward runs the inference kernels
// and keeps only each layer's input, so a step allocates no column matrix,
// argmax or mask cache. One AlexNet-S epoch of two
// batch-16 steps measures ≈ 459 objects; the per-sample training forward,
// with its per-sample column matrices, argmax and mask caches, took ≈ 805.
func TestTrainEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	net, data, opt := trainEpochFixture()
	TrainEpoch(net, data, 16, opt) // warm the pools and the gradient buffers
	if allocs := testing.AllocsPerRun(5, func() { TrainEpoch(net, data, 16, opt) }); allocs > 505 {
		t.Fatalf("one AlexNet-S epoch allocates %.0f objects, ceiling 505", allocs)
	}
}
