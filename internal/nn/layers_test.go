package nn

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"pcnn/internal/tensor"
)

// naiveConv computes a direct convolution as a reference for the
// im2col+GEMM path.
func naiveConv(x *tensor.Tensor, w *tensor.Tensor, bias []float32, inC, inH, inW, outC, k, stride, pad int) *tensor.Tensor {
	n := x.Dim(0)
	ho := (inH+2*pad-k)/stride + 1
	wo := (inW+2*pad-k)/stride + 1
	out := tensor.New(n, outC, ho, wo)
	for i := 0; i < n; i++ {
		for f := 0; f < outC; f++ {
			for oy := 0; oy < ho; oy++ {
				for ox := 0; ox < wo; ox++ {
					s := float64(bias[f])
					for c := 0; c < inC; c++ {
						for ky := 0; ky < k; ky++ {
							for kx := 0; kx < k; kx++ {
								iy := oy*stride - pad + ky
								ix := ox*stride - pad + kx
								if iy < 0 || iy >= inH || ix < 0 || ix >= inW {
									continue
								}
								s += float64(x.At(i, c, iy, ix)) * float64(w.At(f, c*k*k+ky*k+kx))
							}
						}
					}
					out.Set(float32(s), i, f, oy, ox)
				}
			}
		}
	}
	return out
}

func TestConvMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	conv := NewConv("c", 3, 7, 6, 4, 3, 2, 1, rng)
	x := tensor.New(2, 3, 7, 6)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	got := conv.Forward(x, false)
	want := naiveConv(x, conv.weight.W, conv.bias.W.Data, 3, 7, 6, 4, 3, 2, 1)
	if !tensor.AllClose(got, want, 1e-4) {
		t.Fatalf("im2col conv diverges from direct conv")
	}
}

func TestConvForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv("c", 3, 16, 16, 8, 3, 1, 1, rng)
	out := conv.Forward(tensor.New(4, 3, 16, 16), false)
	want := []int{4, 8, 16, 16}
	for i, d := range want {
		if out.Dim(i) != d {
			t.Fatalf("out shape %v, want %v", out.Shape(), want)
		}
	}
}

func TestConvInputShapeMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv("c", 3, 8, 8, 4, 3, 1, 1, rng)
	defer func() {
		if recover() == nil {
			t.Fatalf("mismatched input did not panic")
		}
	}()
	conv.Forward(tensor.New(1, 3, 9, 8), false)
}

// gradCheck compares analytic parameter and input gradients against
// central finite differences of a scalar loss (sum of outputs × fixed
// random weights).
func gradCheck(t *testing.T, layer Layer, inShape []int, seed int64, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(inShape...)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	out := layer.Forward(x, true)
	coef := make([]float32, out.Len())
	for i := range coef {
		coef[i] = rng.Float32()*2 - 1
	}
	loss := func(o *tensor.Tensor) float64 {
		var s float64
		for i, v := range o.Data {
			s += float64(coef[i]) * float64(v)
		}
		return s
	}
	_ = loss(out)
	grad := tensor.New(out.Shape()...)
	copy(grad.Data, coef)
	for _, p := range layer.Params() {
		p.G.Zero()
	}
	dx := layer.Backward(grad)

	const eps = 1e-2
	check := func(name string, data []float32, analytic []float32, n int) {
		for trial := 0; trial < n; trial++ {
			i := rng.Intn(len(data))
			orig := data[i]
			data[i] = orig + eps
			up := loss(layer.Forward(x, false))
			data[i] = orig - eps
			down := loss(layer.Forward(x, false))
			data[i] = orig
			numeric := (up - down) / (2 * eps)
			got := float64(analytic[i])
			scale := math.Max(math.Abs(numeric), math.Abs(got))
			if scale < 1e-4 {
				continue
			}
			if math.Abs(numeric-got)/scale > tol {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", name, i, got, numeric)
			}
		}
	}
	check("dx", x.Data, dx.Data, 12)
	for _, p := range layer.Params() {
		check(p.Name, p.W.Data, p.G.Data, 12)
	}
}

func TestConvGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gradCheck(t, NewConv("c", 2, 6, 5, 3, 3, 1, 1, rng), []int{2, 2, 6, 5}, 21, 0.03)
}

func TestConvGradCheckStride2(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	gradCheck(t, NewConv("c", 3, 8, 8, 4, 3, 2, 0, rng), []int{1, 3, 8, 8}, 22, 0.03)
}

func TestFCGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	gradCheck(t, NewFC("f", 12, 5, rng), []int{3, 3, 2, 2}, 23, 0.03)
}

func TestReLUGradCheck(t *testing.T) {
	gradCheck(t, NewReLU("r"), []int{2, 3, 4, 4}, 24, 0.03)
}

func TestMaxPoolGradCheck(t *testing.T) {
	gradCheck(t, NewMaxPool("p", 2, 2), []int{2, 2, 6, 6}, 25, 0.05)
}

func TestInceptionGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	inc := NewInception("i",
		[]Layer{NewConv("b0", 3, 5, 5, 2, 1, 1, 0, rng)},
		[]Layer{NewConv("b1a", 3, 5, 5, 2, 1, 1, 0, rng), NewConv("b1b", 2, 5, 5, 3, 3, 1, 1, rng)},
	)
	gradCheck(t, inc, []int{2, 3, 5, 5}, 26, 0.03)
}

func TestMaxPoolForward(t *testing.T) {
	p := NewMaxPool("p", 2, 2)
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out := p.Forward(x, false)
	want := []float32{6, 8, 14, 16}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("pool out %v, want %v", out.Data, want)
		}
	}
}

func TestReLUForward(t *testing.T) {
	r := NewReLU("r")
	x := tensor.FromSlice([]float32{-1, 0, 2, -3}, 1, 4, 1, 1)
	out := r.Forward(x, false)
	want := []float32{0, 0, 2, 0}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("relu out %v, want %v", out.Data, want)
		}
	}
	if x.Data[0] != -1 {
		t.Fatalf("ReLU mutated its input")
	}
}

func TestBackwardWithoutForwardPanics(t *testing.T) {
	cases := []Layer{
		NewConv("c", 1, 4, 4, 1, 3, 1, 1, rand.New(rand.NewSource(1))),
		NewFC("f", 4, 2, rand.New(rand.NewSource(1))),
		NewMaxPool("p", 2, 2),
		NewReLU("r"),
	}
	for _, l := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Backward without Forward did not panic", l.Name())
				}
			}()
			l.Backward(tensor.New(1, 1, 1, 1))
		}()
	}
}

func TestConvPerforationMatchesFullAtComputedPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	conv := NewConv("c", 3, 12, 12, 4, 3, 1, 1, rng)
	x := tensor.New(1, 3, 12, 12)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	full := conv.Forward(x, false)
	conv.SetPerforation(6, 6)
	perf := conv.Forward(x, false)
	m := perfMaskFor(conv)
	conv.SetPerforation(0, 0)

	ho, wo := conv.OutDims()
	for f := 0; f < 4; f++ {
		// Bilinear interpolation is a convex combination of computed
		// values; bound them per channel.
		lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
		for i := 0; i < ho*wo; i++ {
			if m.Computed[i] {
				v := perf.At(0, f, i/wo, i%wo)
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
		for i := 0; i < ho*wo; i++ {
			pf := perf.At(0, f, i/wo, i%wo)
			fl := full.At(0, f, i/wo, i%wo)
			if m.Computed[i] {
				if math.Abs(float64(pf-fl)) > 1e-5 {
					t.Fatalf("computed position %d differs: %v vs %v", i, pf, fl)
				}
			} else if pf < lo-1e-5 || pf > hi+1e-5 {
				t.Fatalf("interpolated position %d = %v outside computed range [%v,%v]", i, pf, lo, hi)
			}
		}
	}
}

// perfMaskFor exposes the mask of the conv's own SetPerforation grid.
func perfMaskFor(c *Conv) maskView {
	m := c.own.masks[c]
	return maskView{Computed: m.Computed, Source: m.Source}
}

type maskView struct {
	Computed []bool
	Source   []int
}

func TestConvPerforationZeroIsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	conv := NewConv("c", 2, 8, 8, 3, 3, 1, 1, rng)
	x := tensor.New(1, 2, 8, 8)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	full := conv.Forward(x, false)
	conv.SetPerforation(0, 0)
	again := conv.Forward(x, false)
	if !tensor.AllClose(full, again, 0) {
		t.Fatalf("keep (0,0) changed output")
	}
	ho, wo := conv.OutDims()
	conv.SetPerforation(wo, ho)
	fullKeep := conv.Forward(x, false)
	if !tensor.AllClose(full, fullKeep, 0) {
		t.Fatalf("keep (wo,ho) changed output")
	}
}

func TestTrainingIgnoresPerforation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	conv := NewConv("c", 2, 8, 8, 3, 3, 1, 1, rng)
	x := tensor.New(1, 2, 8, 8)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	full := conv.Forward(x, false)
	conv.SetPerforation(2, 2)
	trainOut := conv.Forward(x, true)
	if !tensor.AllClose(full, trainOut, 0) {
		t.Fatalf("training forward applied perforation")
	}
}

// TestReLUInferenceMatchesBranch pins the branch-free inference ReLU to
// `if v < 0 { v = 0 }` on every class of value, bit for bit: negatives and
// -Inf clear, while -0, NaNs of either sign, denormals and positives pass
// through untouched.
func TestReLUInferenceMatchesBranch(t *testing.T) {
	vals := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 1e-45, -1e-45, 3e38, -3e38,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7FC00000), math.Float32frombits(0xFFC00000), math.Float32frombits(0xFF800001),
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		vals = append(vals, math.Float32frombits(rng.Uint32()))
	}
	x := tensor.FromSlice(vals, 1, len(vals), 1, 1)
	got := NewReLU("r").Forward(x, false)
	for i, v := range vals {
		want := v
		if v < 0 {
			want = 0
		}
		if math.Float32bits(got.Data[i]) != math.Float32bits(want) {
			t.Fatalf("relu(%g [%#x]) = %g [%#x], want %g", v, math.Float32bits(v), got.Data[i], math.Float32bits(got.Data[i]), want)
		}
		if math.Float32bits(x.Data[i]) != math.Float32bits(v) {
			t.Fatal("inference ReLU overwrote its caller's tensor")
		}
	}
}

// TestMaxPoolInferenceMatchesTraining: the argmax-free inference loop and
// the training forward compute the same maxima.
func TestMaxPoolInferenceMatchesTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, cfg := range [][4]int{{2, 2, 8, 8}, {3, 2, 9, 7}, {3, 1, 5, 6}, {2, 3, 8, 11}} {
		p := NewMaxPool("p", cfg[0], cfg[1])
		x := tensor.New(3, 4, cfg[2], cfg[3])
		for i := range x.Data {
			x.Data[i] = rng.Float32()*2 - 1
		}
		infer, train := p.Forward(x, false), p.Forward(x, true)
		if !tensor.AllClose(infer, train, 0) {
			t.Fatalf("pool %dx%d/%d on %dx%d: inference and training forwards differ", cfg[0], cfg[0], cfg[1], cfg[2], cfg[3])
		}
	}
}

// TestConvMaskBuiltOnce: a (geometry, keep) mask is constructed once per
// layer and shared by every ForwardOpts and the layer's own setter.
func TestConvMaskBuiltOnce(t *testing.T) {
	net := AlexNetS(rand.New(rand.NewSource(5)))
	conv := net.Layers[0].(*Conv)
	if conv.maskFor(Keep{}) != nil || conv.maskFor(Keep{W: 16, H: 16}) != nil || conv.maskFor(Keep{W: 20, H: 16}) != nil {
		t.Fatal("a full keep resolved to a mask")
	}
	m := conv.maskFor(Keep{W: 7, H: 7})
	if m == nil || m.SampledCount() != 49 {
		t.Fatalf("7x7 keep resolved to %v", m)
	}
	keeps := make([]Keep, len(net.PerforableLayers()))
	keeps[0] = Keep{W: 7, H: 7}
	if o := net.NewForwardOpts(keeps, nil); o.masks[conv] != m || len(o.masks) != 1 {
		t.Fatal("NewForwardOpts built its own mask instead of sharing the layer's")
	}
	lone := NewConv("c", 3, 16, 16, 4, 3, 1, 1, rand.New(rand.NewSource(6)))
	lm := lone.maskFor(Keep{W: 7, H: 7})
	lone.SetPerforation(7, 7)
	if lone.own.masks[lone] != lm {
		t.Fatal("SetPerforation built a second mask for the same keep")
	}
}

// TestInferenceAllocCeiling: a batch-32 AlexNet-S forward runs on pooled
// activations — what it allocates is a handful of tensor headers and the
// logits it returns (166 objects before the per-call arena).
func TestInferenceAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(6))
	net := AlexNetS(rng)
	x := tensor.New(32, 3, ScaledInputSize, ScaledInputSize)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	net.Forward(x, false) // warm the pools
	if allocs := testing.AllocsPerRun(20, func() { net.Forward(x, false) }); allocs > 20 {
		t.Fatalf("batch-32 AlexNet-S inference allocates %.0f objects, ceiling 20", allocs)
	}
}

// TestHostLadderMonotone (ROADMAP item 2): perforation has to buy time on
// the host, not only on the simulated GPU. AlexNet-S at batch 32 — the
// served plan batch; weights do not change the cost, so seeded ones do —
// at levels 0, 9 (the served base level: CONV1 7×7 of 16×16, CONV2 5×5 of
// 8×8, CONV4 3×3 of 4×4) and 12 (the deepest) of the table the tuner
// attaches to the trained network. The levels are timed interleaved and
// compared by their medians; 10 % of slack absorbs what a shared 2-vCPU
// host adds between neighbouring levels (level 9 measures ≈ 13 % under
// level 0, level 12 ≈ 5–10 % under level 9; EXPERIMENTS.md has all 13).
func TestHostLadderMonotone(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("wall-clock comparison: skipped under -short and the race detector")
	}
	rng := rand.New(rand.NewSource(6))
	net := AlexNetS(rng)
	x := tensor.New(32, 3, ScaledInputSize, ScaledInputSize)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	levels := []struct {
		name  string
		keeps []Keep
	}{
		{"level 0", nil},
		{"level 9", []Keep{{7, 7}, {5, 5}, {}, {3, 3}, {}}},
		{"level 12", []Keep{{7, 7}, {4, 4}, {2, 2}, {3, 3}, {}}},
	}
	const rounds, slack = 61, 1.10
	opts := make([]*ForwardOpts, len(levels))
	times := make([][]time.Duration, len(levels))
	for i, l := range levels {
		opts[i] = net.NewForwardOpts(l.keeps, nil)
		net.ForwardWith(x, opts[i]) // warm the pools
	}
	for r := 0; r < rounds; r++ {
		for i, o := range opts {
			t0 := time.Now()
			net.ForwardWith(x, o)
			times[i] = append(times[i], time.Since(t0))
		}
	}
	median := func(d []time.Duration) time.Duration {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return d[len(d)/2]
	}
	for i := 1; i < len(levels); i++ {
		prev, cur := median(times[i-1]), median(times[i])
		t.Logf("%s %v → %s %v", levels[i-1].name, prev, levels[i].name, cur)
		if float64(cur) > slack*float64(prev) {
			t.Errorf("%s forward (median %v of %d) costs more than %s (%v): perforation does not pay on the host",
				levels[i].name, cur, rounds, levels[i-1].name, prev)
		}
	}
}
